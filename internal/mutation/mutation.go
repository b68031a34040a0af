// Package mutation implements mutation analysis for testbench
// qualification (Sec. 2.4 of the paper): DeMillo-style syntactic
// mutation operators are applied to an MDL behavioural model, a test
// suite runs against every mutant, and the mutation score — the
// fraction of mutants killed — measures the testbench's ability to
// reveal faults ("an advanced metric to assess a testbench's quality
// compared with coverage based metrics", reproduced by experiment E3).
//
// Mutants execute through mutation schemata (one parsed program, the
// active mutant selected at run time); GenerateThenReparse provides
// the naive rebuild-per-mutant baseline that experiment E9 benchmarks
// schemata against.
package mutation

import (
	"fmt"
	"time"

	"repro/internal/mdl"
	"repro/internal/obs"
	"repro/internal/par"
)

// Mutant is one seeded syntactic fault.
type Mutant struct {
	ID          int
	Mut         mdl.SchemataMut
	Operator    string // operator class: AOR, ROR, LCR, CRP, NC, SDL
	Description string
}

// arithmeticAlternatives maps each arithmetic operator to its AOR
// replacements.
var arithmeticAlternatives = map[mdl.TokKind][]mdl.TokKind{
	mdl.TokPlus:    {mdl.TokMinus, mdl.TokStar},
	mdl.TokMinus:   {mdl.TokPlus, mdl.TokStar},
	mdl.TokStar:    {mdl.TokPlus, mdl.TokSlash},
	mdl.TokSlash:   {mdl.TokStar, mdl.TokPercent},
	mdl.TokPercent: {mdl.TokSlash, mdl.TokStar},
}

// relationalAlternatives maps each relational operator to its ROR
// replacements (the adjacent and inverted forms).
var relationalAlternatives = map[mdl.TokKind][]mdl.TokKind{
	mdl.TokLT: {mdl.TokLE, mdl.TokGE},
	mdl.TokLE: {mdl.TokLT, mdl.TokGT},
	mdl.TokGT: {mdl.TokGE, mdl.TokLE},
	mdl.TokGE: {mdl.TokGT, mdl.TokLT},
	mdl.TokEQ: {mdl.TokNE},
	mdl.TokNE: {mdl.TokEQ},
}

// logicalAlternatives maps && <-> || (LCR).
var logicalAlternatives = map[mdl.TokKind][]mdl.TokKind{
	mdl.TokAndAnd: {mdl.TokOrOr},
	mdl.TokOrOr:   {mdl.TokAndAnd},
}

// Generate enumerates every mutant of the program under the classic
// operator set: AOR (arithmetic operator replacement), ROR (relational
// operator replacement), LCR (logical connector replacement), CRP
// (constant replacement), NC (condition negation) and SDL (statement
// deletion).
func Generate(p *mdl.Program) []Mutant {
	var out []Mutant
	add := func(m mdl.SchemataMut, op, desc string) {
		out = append(out, Mutant{ID: len(out), Mut: m, Operator: op, Description: desc})
	}
	mdl.Walk(p, func(n any) {
		switch node := n.(type) {
		case *mdl.Binary:
			var class string
			var alts []mdl.TokKind
			switch {
			case arithmeticAlternatives[node.Op] != nil:
				class, alts = "AOR", arithmeticAlternatives[node.Op]
			case relationalAlternatives[node.Op] != nil:
				class, alts = "ROR", relationalAlternatives[node.Op]
			case logicalAlternatives[node.Op] != nil:
				class, alts = "LCR", logicalAlternatives[node.Op]
			}
			for _, alt := range alts {
				add(mdl.SchemataMut{Node: node.ID(), Op: mdl.MutReplaceBinOp, NewTok: alt},
					class, fmt.Sprintf("node %d: %s -> %s", node.ID(), node.Op, alt))
			}
		case *mdl.IntLit:
			for _, nv := range []int64{node.Val + 1, node.Val - 1, 0} {
				if nv == node.Val {
					continue
				}
				add(mdl.SchemataMut{Node: node.ID(), Op: mdl.MutReplaceConst, NewVal: nv},
					"CRP", fmt.Sprintf("node %d: const %d -> %d", node.ID(), node.Val, nv))
			}
		case *mdl.If:
			add(mdl.SchemataMut{Node: node.ID(), Op: mdl.MutNegateCond},
				"NC", fmt.Sprintf("node %d: negate if-condition", node.ID()))
		case *mdl.While:
			add(mdl.SchemataMut{Node: node.ID(), Op: mdl.MutNegateCond},
				"NC", fmt.Sprintf("node %d: negate while-condition", node.ID()))
		case *mdl.Assign:
			add(mdl.SchemataMut{Node: node.ID(), Op: mdl.MutDeleteStmt},
				"SDL", fmt.Sprintf("node %d: delete assignment", node.ID()))
		case *mdl.Let:
			add(mdl.SchemataMut{Node: node.ID(), Op: mdl.MutDeleteStmt},
				"SDL", fmt.Sprintf("node %d: delete let", node.ID()))
		}
	})
	return out
}

// Test is one testbench vector: invoke Fn with Args; the expected
// result is taken from the un-mutated (golden) model, so a test kills
// a mutant when the mutant's observable behaviour differs.
type Test struct {
	Fn   string
	Args []int64
}

// Verdict is the fate of one mutant under the suite.
type Verdict uint8

const (
	// Survived means no test distinguished the mutant.
	Survived Verdict = iota
	// KilledByValue means a test produced a different result.
	KilledByValue
	// KilledByError means the mutant crashed or timed out where the
	// golden model did not.
	KilledByError
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Survived:
		return "survived"
	case KilledByValue:
		return "killed-value"
	case KilledByError:
		return "killed-error"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// MutantResult pairs a mutant with its fate.
type MutantResult struct {
	Mutant  Mutant
	Verdict Verdict
	// KillingTest is the index of the first killing test (-1 if
	// survived).
	KillingTest int
}

// Report is the outcome of qualifying one testbench against one model.
type Report struct {
	Total   int
	Killed  int
	Results []MutantResult
	// Score is Killed/Total — the mutation score.
	Score float64
	// StatementCoverage is the golden-run structural coverage of the
	// same suite, for the E3 coverage-vs-mutation comparison.
	StatementCoverage float64
}

// Survivors lists mutants no test killed (candidate testbench holes or
// equivalent mutants).
func (r *Report) Survivors() []Mutant {
	var out []Mutant
	for _, res := range r.Results {
		if res.Verdict == Survived {
			out = append(out, res.Mutant)
		}
	}
	return out
}

// Options configure a qualification run.
type Options struct {
	// Reparse re-parses the model source for every mutant before
	// execution — the naive rebuild-per-mutant baseline of E9.
	Reparse bool
	// Workers selects mutant-execution parallelism: 0 runs mutants
	// sequentially, N > 0 uses a pool of N goroutines, par.Auto
	// sizes the pool to GOMAXPROCS. Every mutant executes in its own
	// interpreter against a read-only program, so the Report is
	// identical for every setting.
	Workers int

	// Metrics, when non-nil, receives qualification telemetry: a
	// mutation.mutant_duration_ns histogram, mutation.verdicts
	// counters per verdict and a mutation.mutants counter. The Report
	// is identical with or without it.
	Metrics *obs.Registry
	// Trace, when non-nil, records golden-run/generate phases and one
	// span per mutant on the executing worker's trace row.
	Trace *obs.TraceRecorder
	// Progress, when non-nil, receives rate-limited live updates
	// while mutants execute (Failures counts killed mutants).
	Progress obs.ProgressFunc
	// ProgressInterval overrides the update rate limit (0 selects
	// obs.DefaultProgressInterval, negative disables limiting).
	ProgressInterval time.Duration
}

// Qualify runs the full analysis using mutation schemata: the program
// is parsed once; each mutant is selected by flag.
func Qualify(p *mdl.Program, tests []Test) (*Report, error) {
	return QualifyWith(p, tests, Options{})
}

// QualifyReparse is the naive baseline: the model source is re-parsed
// for every mutant before execution (standing in for rebuild-per-
// mutant flows). Results are identical to Qualify; only cost differs.
func QualifyReparse(p *mdl.Program, tests []Test) (*Report, error) {
	return QualifyWith(p, tests, Options{Reparse: true})
}

// QualifyWith runs the analysis under explicit options. Mutant fates
// are independent of each other, so parallel execution reassembles
// the exact sequential Report (result order, kill counts, score),
// and attaching Metrics/Trace/Progress never changes it.
func QualifyWith(p *mdl.Program, tests []Test, opts Options) (*Report, error) {
	if len(tests) == 0 {
		return nil, fmt.Errorf("mutation: empty test suite")
	}
	// Golden run: expected values + structural coverage.
	goldenSpan := opts.Trace.Begin("mutation", "golden-run", 0)
	golden := mdl.NewInterp(p)
	expected := make([]int64, len(tests))
	for i, t := range tests {
		v, err := golden.Call(t.Fn, t.Args...)
		if err != nil {
			return nil, fmt.Errorf("mutation: golden run of test %d failed: %w", i, err)
		}
		expected[i] = v
	}
	cov := golden.CoverageFraction()
	goldenSpan.End()

	genSpan := opts.Trace.Begin("mutation", "generate", 0)
	mutants := Generate(p)
	genSpan.End()

	var durHist *obs.Histogram
	if opts.Metrics != nil {
		durHist = opts.Metrics.Histogram("mutation.mutant_duration_ns")
	}
	meter := obs.NewProgressMeter("mutation", len(mutants), opts.ProgressInterval, opts.Progress)

	type fate struct {
		res MutantResult
		err error
	}
	// One interpreter per pool worker, reused across that worker's
	// mutants (SetMutation swaps the active mutant; the program itself
	// is read-only) — the same slot-per-worker shape as the campaign
	// runners. Reparse mode rebuilds per mutant by definition, so it
	// takes no slot.
	nslots := par.Resolve(opts.Workers)
	if nslots < 1 {
		nslots = 1
	}
	slots := make([]*mdl.Interp, nslots)
	fates := par.MapIndexed(opts.Workers, len(mutants), func(worker, i int) fate {
		sp := opts.Trace.Begin("mutation", fmt.Sprintf("mutant-%d", mutants[i].ID), worker)
		var t0 time.Time
		if durHist != nil {
			t0 = time.Now()
		}
		var in *mdl.Interp
		if !opts.Reparse {
			if slots[worker] == nil {
				slots[worker] = mdl.NewInterp(p)
			}
			in = slots[worker]
		}
		res, err := runMutant(p, in, mutants[i], tests, expected, opts.Reparse)
		if durHist != nil {
			durHist.Observe(uint64(time.Since(t0)))
		}
		sp.Arg("operator", mutants[i].Operator).Arg("verdict", res.Verdict.String()).End()
		meter.Step(res.Verdict != Survived)
		return fate{res: res, err: err}
	})
	meter.Finish()

	rep := &Report{Total: len(mutants), StatementCoverage: cov}
	for _, f := range fates {
		if f.err != nil {
			return nil, f.err
		}
		if f.res.Verdict != Survived {
			rep.Killed++
		}
		rep.Results = append(rep.Results, f.res)
	}
	if rep.Total > 0 {
		rep.Score = float64(rep.Killed) / float64(rep.Total)
	}
	if opts.Metrics != nil {
		// Counters derive from the assembled report, so recorded
		// values are deterministic across worker counts.
		opts.Metrics.Counter("mutation.mutants").Add(uint64(rep.Total))
		for _, r := range rep.Results {
			opts.Metrics.Counter("mutation.verdicts", obs.L("verdict", r.Verdict.String())).Inc()
		}
	}
	return rep, nil
}

// runMutant executes one mutant against the suite and reports its
// fate. A non-nil interpreter is reused (its mutation is swapped in
// and cleared afterwards); with reparse, the source is re-parsed into
// a private program first. Concurrent calls are safe as long as each
// worker owns its interpreter.
func runMutant(p *mdl.Program, in *mdl.Interp, m Mutant, tests []Test, expected []int64, reparse bool) (MutantResult, error) {
	if reparse {
		prog, err := mdl.Parse(p.Source)
		if err != nil {
			return MutantResult{}, fmt.Errorf("mutation: reparse failed: %w", err)
		}
		in = mdl.NewInterp(prog)
	} else if in == nil {
		in = mdl.NewInterp(p)
	}
	mut := m.Mut
	in.SetMutation(&mut)
	defer in.SetMutation(nil)
	res := MutantResult{Mutant: m, Verdict: Survived, KillingTest: -1}
	for i, t := range tests {
		v, err := in.Call(t.Fn, t.Args...)
		if err != nil {
			res.Verdict = KilledByError
			res.KillingTest = i
			break
		}
		if v != expected[i] {
			res.Verdict = KilledByValue
			res.KillingTest = i
			break
		}
	}
	return res, nil
}
