// Package mdl implements a small imperative behavioural model language
// (the "Model Description Language"): integer/boolean expressions,
// let/assign, if/else, while and return, organized into functions.
//
// The language exists because mutation analysis (Sec. 2.4 of the
// paper) needs an executable model whose syntax can be systematically
// perturbed. Commercial flows mutate VHDL/SystemC (Certitude [24],
// SystemC/TLM [25]); this package is the portable equivalent: models
// of HW/SW components are written in MDL, the mutation package seeds
// DeMillo-style syntactic faults into the AST, and testbenches are
// qualified by their ability to kill the mutants. The interpreter
// supports mutation schemata — one parsed program executing any single
// mutant selected at run time — which experiment E9 benchmarks against
// re-parsing per mutant.
package mdl

import (
	"fmt"
	"unicode"
)

// TokKind enumerates token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokFunc
	TokLet
	TokIf
	TokElse
	TokWhile
	TokReturn
	TokTrue
	TokFalse
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokComma
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokLT
	TokLE
	TokGT
	TokGE
	TokEQ
	TokNE
	TokAndAnd
	TokOrOr
	TokNot
)

var tokNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokInt: "integer",
	TokFunc: "func", TokLet: "let", TokIf: "if", TokElse: "else",
	TokWhile: "while", TokReturn: "return", TokTrue: "true", TokFalse: "false",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokComma: ",", TokAssign: "=", TokPlus: "+", TokMinus: "-",
	TokStar: "*", TokSlash: "/", TokPercent: "%", TokLT: "<", TokLE: "<=",
	TokGT: ">", TokGE: ">=", TokEQ: "==", TokNE: "!=",
	TokAndAnd: "&&", TokOrOr: "||", TokNot: "!",
}

// String names the token kind.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", uint8(k))
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Val  int64 // TokInt only
	Line int
}

var keywords = map[string]TokKind{
	"func": TokFunc, "let": TokLet, "if": TokIf, "else": TokElse,
	"while": TokWhile, "return": TokReturn, "true": TokTrue, "false": TokFalse,
}

// Lex tokenizes MDL source. Comments run from '#' to end of line.
func Lex(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	emit := func(k TokKind, text string, val int64) {
		toks = append(toks, Token{Kind: k, Text: text, Val: val, Line: line})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			col = 1
			i++
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			col++
			continue
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case unicode.IsDigit(rune(c)):
			start := i
			for i < len(src) && unicode.IsDigit(rune(src[i])) {
				i++
			}
			text := src[start:i]
			var v int64
			for _, d := range text {
				v = v*10 + int64(d-'0')
			}
			emit(TokInt, text, v)
			col += i - start
			continue
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			text := src[start:i]
			if k, ok := keywords[text]; ok {
				emit(k, text, 0)
			} else {
				emit(TokIdent, text, 0)
			}
			col += i - start
			continue
		}
		two := ""
		if i+1 < len(src) {
			two = src[i : i+2]
		}
		switch two {
		case "<=":
			emit(TokLE, two, 0)
			i += 2
			col += 2
			continue
		case ">=":
			emit(TokGE, two, 0)
			i += 2
			col += 2
			continue
		case "==":
			emit(TokEQ, two, 0)
			i += 2
			col += 2
			continue
		case "!=":
			emit(TokNE, two, 0)
			i += 2
			col += 2
			continue
		case "&&":
			emit(TokAndAnd, two, 0)
			i += 2
			col += 2
			continue
		case "||":
			emit(TokOrOr, two, 0)
			i += 2
			col += 2
			continue
		}
		single := map[byte]TokKind{
			'(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace,
			',': TokComma, '=': TokAssign, '+': TokPlus, '-': TokMinus,
			'*': TokStar, '/': TokSlash, '%': TokPercent, '<': TokLT,
			'>': TokGT, '!': TokNot,
		}
		if k, ok := single[c]; ok {
			emit(k, string(c), 0)
			i++
			col++
			continue
		}
		return nil, fmt.Errorf("mdl: line %d col %d: unexpected character %q", line, col, c)
	}
	emit(TokEOF, "", 0)
	return toks, nil
}
