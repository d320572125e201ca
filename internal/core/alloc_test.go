//go:build !race

// Allocation guards. Excluded from -race builds: the race runtime makes
// sync.Pool drop items at random, so allocation counts mean nothing there.

package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSingleOpAllocs guards the host cost of the one execution path: a
// single op is a batch of one, and it must allocate no more than the
// dedicated single-op path it replaced (Get 4, Set 6 on this store).
func TestSingleOpAllocs(t *testing.T) {
	s, m := newTestStore(Defaults(1024))
	const n = 512
	keys := make([][]byte, n)
	val := bytes.Repeat([]byte{'v'}, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc%04d", i))
		must(t, s.Set(m, keys[i], val))
	}
	var i int
	next := func() []byte { i++; return keys[i%n] }
	ops := make([]BatchOp, 1)
	rs := make([]BatchResult, 1)
	batchOf := func(op BatchOp) func() {
		return func() {
			op.Key = next()
			ops[0], rs[0] = op, BatchResult{}
			s.ApplyBatchInto(m, ops, rs)
			if rs[0].Err != nil {
				t.Fatal(rs[0].Err)
			}
		}
	}
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Get", 4, func() {
			if _, err := s.Get(m, next()); err != nil {
				t.Fatal(err)
			}
		}},
		{"Set", 6, func() { must(t, s.Set(m, next(), val)) }},
		{"BatchOfOneGet", 4, batchOf(BatchOp{Kind: BatchGet})},
		{"BatchOfOneSet", 6, batchOf(BatchOp{Kind: BatchSet, Value: val})},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.1f allocs/op", c.name, got)
		}
	}
}
