package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

func TestBackgroundRunsLoops(t *testing.T) {
	cx := Background()
	var sum atomic.Int64
	cx.For(1000, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 499500 {
		t.Fatalf("For sum = %d, want 499500", sum.Load())
	}
	if cx.Err() != nil {
		t.Fatalf("background ctx reports error %v", cx.Err())
	}
}

func TestCtxImplementsRunner(t *testing.T) {
	var _ par.Runner = Background()
}

func TestTracerAccounting(t *testing.T) {
	var tr par.Tracer
	cx := New(Config{Tracer: &tr})
	cx.For(10, func(int) {})
	cx.Round(10)
	if tr.Rounds() != 1 || tr.Work() != 10 {
		t.Fatalf("tracer recorded %s, want rounds=1 work=10", tr.String())
	}
}

func TestCancellationPanicsAndIsCaught(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cx := New(Config{Context: ctx})
	cancel()
	run := func() (err error) {
		defer CatchCancel(&err)
		cx.For(100, func(int) { t.Error("loop body ran after cancellation") })
		return nil
	}
	if err := run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCatchCancelPassesOtherPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	func() {
		var err error
		defer CatchCancel(&err)
		panic("boom")
	}()
}

func TestDeadlineSurfacesAsDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancel()
	cx := New(Config{Context: ctx})
	run := func() (err error) {
		defer CatchCancel(&err)
		cx.Range(10, 1, func(lo, hi int) {})
		return nil
	}
	if err := run(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	cx := New(Config{Arena: ar})
	s1 := cx.Int32s(100)
	s1[0] = 42
	p1 := &s1[:1][0]
	cx.PutInt32s(s1)
	s2 := cx.Int32s(50)
	if &s2[:1][0] != p1 {
		t.Fatal("arena did not reuse the recycled buffer")
	}
	if s2[0] != 0 {
		t.Fatalf("recycled buffer not zeroed: s2[0] = %d", s2[0])
	}
	s3 := cx.Int32s(100) // arena empty again: fresh allocation
	if &s3[:1][0] == p1 {
		t.Fatal("arena handed out the same buffer twice concurrently")
	}
}

func TestArenaPrefersSmallestFit(t *testing.T) {
	ar := NewArena()
	cx := New(Config{Arena: ar})
	big := cx.Ints(1000)
	small := cx.Ints(10)
	cx.PutInts(big)
	cx.PutInts(small)
	got := cx.Ints(5)
	if cap(got) >= 1000 {
		t.Fatalf("asked for 5, got the big buffer (cap %d)", cap(got))
	}
}

func TestNilArenaAccessorsFallBackToMake(t *testing.T) {
	cx := Background()
	s := cx.Bools(10)
	if len(s) != 10 {
		t.Fatalf("len = %d, want 10", len(s))
	}
	cx.PutBools(s) // must not panic
	u := cx.Uint32s(3)
	cx.PutUint32s(u)
	a := cx.AtomicInt32s(4)
	cx.PutAtomicInt32s(a)
	i64 := cx.Int64s(2)
	cx.PutInt64s(i64)
}

func TestArenaResetReleasesBuffers(t *testing.T) {
	ar := NewArena()
	cx := New(Config{Arena: ar})
	s := cx.Ints(64)
	p := &s[:1][0]
	cx.PutInts(s)
	ar.Reset()
	s2 := cx.Ints(64)
	if &s2[:1][0] == p {
		t.Fatal("Reset kept a recycled buffer")
	}
}
