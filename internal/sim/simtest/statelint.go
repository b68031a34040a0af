// Package simtest holds test helpers for models that follow the sim
// state conventions (sim.State: Hashable and Snapshottable).
package simtest

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/sim"
)

// The state-coverage lint. Convergence early-exit and checkpoint
// restores are only sound if HashState and SnapshotState/RestoreState
// cover every field a run mutates, and those field lists are written by
// hand: one forgotten field is a silently wrong safety verdict. The
// lint turns the omission into a test failure. It walks the fields of a
// struct by reflection, perturbs each one in place, and requires that
// the owning model's digest changes and that capture → perturb →
// restore puts field and digest back. A model has one capture, called
// two ways, and both are checked: into nil, and into a buffer that
// holds the field perturbed, so a capture that skips the field when it
// reuses a buffer shows. Each field is checked from two baselines, its
// value and its perturbed value, so a field the capture never writes
// shows even where its value is the zero value. A field the walk cannot
// or should not check that way needs a Rule, and every Rule carries its
// reason.

// TB is the part of testing.TB the lint reports through, so a test can
// hand it a recorder and assert that a seeded omission is caught.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

type ruleKind uint8

const (
	notState ruleKind = iota
	unhashed
	via
)

// Rule exempts one field (and everything below it) from the default
// check. Build one with NotState, Unhashed or Via.
type Rule struct {
	kind    ruleKind
	reason  string
	perturb func()
}

// NotState marks wiring or configuration: fixed at build time, never
// written by a run, so there is nothing to hash or restore.
func NotState(reason string) Rule { return Rule{kind: notState, reason: reason} }

// Unhashed marks state a run does write and a restore must put back,
// but that the digest leaves out on purpose (diagnostics, observation
// history). Only the restore half is checked.
func Unhashed(reason string) Rule { return Rule{kind: unhashed, reason: reason} }

// Via marks state the walk cannot perturb by reflection — behind a
// pointer, in a map, or reachable only through a write barrier.
// perturb changes it the way the model itself would; both halves are
// then checked through the digest.
func Via(reason string, perturb func()) Rule {
	return Rule{kind: via, reason: reason, perturb: perturb}
}

// StateCoverage lints the fields of *target (a pointer to a struct:
// the model itself or one of its components) against model m. rules is
// keyed by field path relative to target, dotted through nested
// structs and without slice or array indices ("queue.Data"); a rule on
// a path covers everything below it. A rule with an empty reason, or
// one naming no field, fails the lint too.
func StateCoverage(t TB, m sim.State, target any, rules map[string]Rule) {
	t.Helper()
	v := reflect.ValueOf(target)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		t.Errorf("statelint: target must be a pointer to a struct, got %T", target)
		return
	}
	l := &linter{t: t, m: m, rules: rules, used: map[string]bool{}, name: v.Elem().Type().String()}
	for path, r := range rules {
		if strings.TrimSpace(r.reason) == "" {
			t.Errorf("statelint: %s.%s: rule without a reason", l.name, path)
		}
	}
	// A round trip through a capture into nil must not move the digest.
	// It also leaves state the capture misses where every later restore
	// puts it, so that each check sees only its own field move.
	before := l.digest()
	m.RestoreState(m.SnapshotState(nil))
	if after := l.digest(); after != before {
		t.Errorf("statelint: %s: a capture into nil and its restore change the digest: the capture misses some state (its own check names it, unless a Via rule or another target reaches it)", l.name)
	}
	l.walk(func() reflect.Value { return v.Elem() }, "", true)
	var stale []string
	for path := range rules {
		if !l.used[path] {
			stale = append(stale, path)
		}
	}
	sort.Strings(stale)
	for _, path := range stale {
		t.Errorf("statelint: %s.%s: rule names no field the walk reached", l.name, path)
	}
}

type linter struct {
	t     TB
	m     sim.State
	rules map[string]Rule
	used  map[string]bool
	name  string
}

func (l *linter) digest() uint64 { return sim.StateSignature(l.m) }

func (l *linter) errorf(path, format string, args ...any) {
	l.t.Helper()
	l.t.Errorf("statelint: %s.%s: %s", l.name, path, fmt.Sprintf(format, args...))
}

// rulePath strips the indices from a walk path: rules name fields.
func rulePath(path string) string {
	var b strings.Builder
	depth := 0
	for _, c := range path {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func join(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}

var errorType = reflect.TypeOf((*error)(nil)).Elem()

// settable lifts the read-only flag reflection puts on values reached
// through unexported fields. Every value the lint touches descends
// from an addressable root.
func settable(v reflect.Value) reflect.Value {
	if v.CanSet() {
		return v
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// walk checks the value get resolves, found at path. It is re-resolved
// from the root for every use, because a restore may replace a slice's
// backing array. hashed is false below an Unhashed rule.
func (l *linter) walk(get func() reflect.Value, path string, hashed bool) {
	l.t.Helper()
	if path != "" {
		if r, ok := l.rules[rulePath(path)]; ok {
			l.used[rulePath(path)] = true
			switch r.kind {
			case notState:
				return
			case via:
				l.check(path, nil, func(reflect.Value) { r.perturb() }, true)
				return
			case unhashed:
				hashed = false
			}
		}
	}
	index := func(i int) func() reflect.Value {
		return func() reflect.Value {
			if v := get(); i < v.Len() {
				return v.Index(i)
			}
			return reflect.Value{}
		}
	}
	switch v := get(); v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			i := i
			l.walk(func() reflect.Value { return settable(get().Field(i)) }, join(path, v.Type().Field(i).Name), hashed)
		}
	case reflect.Array, reflect.Slice:
		if v.Len() == 0 {
			if v.Kind() == reflect.Slice {
				// Length 0 ↔ 1: a second perturbation undoes the first.
				l.check(path+"[len]", get, func(v reflect.Value) { n := 1 - v.Len(); v.Set(reflect.MakeSlice(v.Type(), n, n)) }, hashed)
			}
			return
		}
		for _, i := range sample(v.Len()) {
			l.walk(index(i), fmt.Sprintf("%s[%d]", path, i), hashed)
		}
	case reflect.Bool:
		l.check(path, get, func(v reflect.Value) { v.SetBool(!v.Bool()) }, hashed)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		l.check(path, get, func(v reflect.Value) { v.SetInt(v.Int() ^ 1) }, hashed)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		l.check(path, get, func(v reflect.Value) { v.SetUint(v.Uint() ^ 1) }, hashed)
	case reflect.Float32, reflect.Float64:
		l.check(path, get, func(v reflect.Value) {
			if f := v.Float(); f == f {
				v.SetFloat(f + 1)
			} else {
				v.SetFloat(1) // NaN sentinel: install a value
			}
		}, hashed)
	case reflect.String:
		l.check(path, get, func(v reflect.Value) { v.SetString(v.String() + "~") }, hashed)
	default:
		if v.Kind() == reflect.Interface && v.Type() == errorType {
			l.check(path, get, func(v reflect.Value) { v.Set(reflect.ValueOf(errors.New(fmt.Sprint(v.Interface()) + "~"))) }, hashed)
			return
		}
		l.errorf(path, "a %s cannot be perturbed by reflection: cover what it holds with a Via rule, or mark it NotState, with the reason", v.Kind())
	}
}

// sample picks the indices of a sequence to perturb: every element of a
// short one, the ends and the middle of a long one.
func sample(n int) []int {
	if n <= 16 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, n / 2, n - 1}
}

// check lints the value get resolves at path (get is nil for a Via
// rule, whose state only the digest can see). From each baseline,
// capture → perturb → restore must put the field and the digest back,
// the capture taken into nil and into a buffer holding the field
// perturbed. The model is left as it was found.
func (l *linter) check(path string, get func() reflect.Value, perturb func(reflect.Value), hashed bool) {
	l.t.Helper()
	if get == nil {
		get = func() reflect.Value { return reflect.Value{} }
	}
	found, origin := deepCopy(get()), l.m.SnapshotState(nil)
	defer func() {
		l.m.RestoreState(origin)
		if now := get(); now.IsValid() && !same(now, found) {
			now.Set(found)
		}
	}()
	back := func(want reflect.Value, before uint64, what string) bool {
		l.t.Helper()
		if now := get(); want.IsValid() && (!now.IsValid() || !same(now, want)) {
			l.errorf(path, "%s does not put it back (have %v, want %v)", what, now, want)
			return false
		}
		if after := l.digest(); after != before {
			l.errorf(path, "%s: the digest after restore (%#x) differs from the one before the perturbation (%#x)", what, after, before)
			return false
		}
		return true
	}
	for base := 0; base < 2; base++ {
		if base == 1 {
			perturb(get())
		}
		want := deepCopy(get())
		before := l.digest()
		ref := l.m.SnapshotState(nil)
		perturb(get())
		if hashed && l.digest() == before {
			l.errorf(path, "perturbing it leaves the HashState digest unchanged — fold it, or list it as Unhashed with the reason")
			return
		}
		l.m.RestoreState(ref)
		if !back(want, before, "capture into nil → perturb → restore") {
			return
		}
		perturb(get())
		buf := l.m.SnapshotState(nil)
		l.m.RestoreState(ref)
		snap := l.m.SnapshotState(buf)
		perturb(get())
		l.m.RestoreState(snap)
		if !back(want, before, "capture into a buffer holding it perturbed → perturb → restore") {
			return
		}
	}
}

// deepCopy copies v far enough that perturbing v in place cannot reach
// the copy: slices get fresh backing arrays, recursively.
func deepCopy(v reflect.Value) reflect.Value {
	if !v.IsValid() {
		return v
	}
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Slice:
		if v.IsNil() {
			return out
		}
		out.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(deepCopy(v.Index(i)))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(deepCopy(v.Index(i)))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			settable(out.Field(i)).Set(deepCopy(settable(v.Field(i))))
		}
	default:
		out.Set(v)
	}
	return out
}

// same is reflect.DeepEqual except that nil and empty slices are equal
// (restores legitimately turn one into the other) and errors compare by
// message, as HashState folds them.
func same(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Interface:
		if a.Type() == errorType {
			if a.IsNil() || b.IsNil() {
				return a.IsNil() == b.IsNil()
			}
			return settable(a).Interface().(error).Error() == settable(b).Interface().(error).Error()
		}
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (x != x && y != y)
	case reflect.Func:
		return a.IsNil() == b.IsNil()
	}
	return reflect.DeepEqual(settable(a).Interface(), settable(b).Interface())
}
