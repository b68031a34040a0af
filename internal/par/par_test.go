package par

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, 0},
		{1, 1},
		{7, 7},
		{Auto, maxprocs},
		{-5, maxprocs},
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	want := make([]int, 100)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 3, 8, Auto} {
		got := MapIndexed(workers, len(want), func(_, i int) int { return i * i })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Map out of order: %v", workers, got)
		}
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	const n = 257
	var counts [n]int32
	MapIndexed(4, n, func(_, i int) struct{} {
		atomic.AddInt32(&counts[i], 1)
		return struct{}{}
	})
	for i, c := range counts {
		if c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := MapIndexed(4, 0, func(_, i int) int { return i }); len(got) != 0 {
		t.Errorf("Map over empty input = %v", got)
	}
}
