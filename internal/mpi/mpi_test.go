package mpi

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

func tm() AlphaBeta { return AlphaBeta{Alpha: 1e-6, Beta: 1e-9} }

func TestRunValidation(t *testing.T) {
	if _, err := Run(0, tm(), func(p *Proc) error { return nil }); err == nil {
		t.Error("zero ranks should fail")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	want := errors.New("rank 2 exploded")
	_, err := Run(4, tm(), func(p *Proc) error {
		if p.Rank() == 2 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Errorf("err = %v", err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	procs, err := Run(2, tm(), func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
			return nil
		}
		data, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(data) != 3 || data[0] != 1 || data[2] != 3 {
			t.Errorf("data = %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver's clock advanced to the arrival time.
	if procs[1].Clock() <= 0 {
		t.Error("receiver clock did not advance")
	}
	if procs[1].WaitTime() <= 0 {
		t.Error("receiver should have waited")
	}
	if procs[0].WaitTime() != 0 {
		t.Error("sender should not wait in the eager model")
	}
}

func TestVirtualTimeDeterministic(t *testing.T) {
	runOnce := func() []float64 {
		procs, err := Run(8, tm(), func(p *Proc) error {
			c := p.World()
			p.Compute(float64(p.Rank()) * 1e-3)
			next := (p.Rank() + 1) % c.Size()
			prev := (p.Rank() + c.Size() - 1) % c.Size()
			c.Send(next, 0, []float64{float64(p.Rank())})
			if _, err := c.Recv(prev, 0); err != nil {
				return err
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(procs))
		for i, p := range procs {
			out[i] = p.Clock()*1e9 + p.WaitTime()
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: clocks differ between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	_, err := Run(2, tm(), func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			d, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if d[0] != float64(i) {
				t.Errorf("message %d arrived out of order: %v", i, d[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsAreIndependent(t *testing.T) {
	_, err := Run(2, tm(), func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
			return nil
		}
		// Receive in reverse tag order.
		d2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		d1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if d2[0] != 2 || d1[0] != 1 {
			t.Errorf("tag routing wrong: %v %v", d1, d2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitAll(t *testing.T) {
	_, err := Run(4, tm(), func(p *Proc) error {
		c := p.World()
		n := c.Size()
		var reqs []*Request
		for r := 0; r < n; r++ {
			if r == p.Rank() {
				continue
			}
			reqs = append(reqs, c.Isend(r, 5, []float64{float64(p.Rank())}))
			reqs = append(reqs, c.Irecv(r, 5))
		}
		return WaitAll(reqs...)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	procs, err := Run(4, tm(), func(p *Proc) error {
		p.Compute(float64(p.Rank()) * 0.5) // skewed clocks
		return p.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the barrier, all clocks are at least the slowest rank's.
	slowest := 1.5
	for i, p := range procs {
		if p.Clock() < slowest {
			t.Errorf("rank %d clock %v below slowest compute %v", i, p.Clock(), slowest)
		}
	}
	// Fast ranks accumulated wait time.
	if procs[0].WaitTime() <= procs[3].WaitTime() {
		t.Error("fastest rank should wait longest")
	}
}

func TestAllreduce(t *testing.T) {
	_, err := Run(5, tm(), func(p *Proc) error {
		c := p.World()
		sum, err := c.Allreduce(OpSum, []float64{float64(p.Rank()), 1})
		if err != nil {
			return err
		}
		if sum[0] != 10 || sum[1] != 5 {
			t.Errorf("rank %d: sum = %v", p.Rank(), sum)
		}
		max, err := c.Allreduce(math.Max, []float64{float64(p.Rank())})
		if err != nil {
			return err
		}
		if max[0] != 4 {
			t.Errorf("max = %v", max)
		}
		min, err := c.Allreduce(math.Min, []float64{float64(p.Rank())})
		if err != nil {
			return err
		}
		if min[0] != 0 {
			t.Errorf("min = %v", min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	_, err := Run(4, tm(), func(p *Proc) error {
		c := p.World()
		all, err := c.Gather([]float64{float64(p.Rank() * 10)})
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			for r, d := range all {
				if d[0] != float64(r*10) {
					t.Errorf("gather[%d] = %v", r, d)
				}
			}
		} else if all != nil {
			t.Error("non-root should receive nil")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	var evenSum int64
	_, err := Run(8, tm(), func(p *Proc) error {
		c := p.World()
		sub, err := c.Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 4 {
			t.Errorf("rank %d: sub size %d", p.Rank(), sub.Size())
		}
		// Sub-communicator collective.
		sum, err := sub.Allreduce(OpSum, []float64{float64(p.Rank())})
		if err != nil {
			return err
		}
		if p.Rank()%2 == 0 {
			atomic.AddInt64(&evenSum, int64(sum[0]))
			if sum[0] != 0+2+4+6 {
				t.Errorf("even group sum = %v", sum[0])
			}
		} else if sum[0] != 1+3+5+7 {
			t.Errorf("odd group sum = %v", sum[0])
		}
		// Local ranks ordered by key (= world rank here).
		if sub.Global(sub.Rank()) != p.Rank() {
			t.Errorf("rank %d: wrong identity mapping", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	_, err := Run(4, tm(), func(p *Proc) error {
		c := p.World()
		color := 0
		if p.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if p.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color should give nil comm")
			}
			return nil
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		return sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplit(t *testing.T) {
	_, err := Run(8, tm(), func(p *Proc) error {
		c := p.World()
		half, err := c.Split(p.Rank()/4, p.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			t.Errorf("quarter size = %d", quarter.Size())
		}
		sum, err := quarter.Allreduce(OpSum, []float64{1})
		if err != nil {
			return err
		}
		if sum[0] != 2 {
			t.Errorf("quarter sum = %v", sum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := Run(2, tm(), func(p *Proc) error {
		// Both ranks receive; nobody sends.
		_, err := p.World().Recv((p.Rank()+1)%2, 0)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

func TestDeadlockWhenPeerExits(t *testing.T) {
	_, err := Run(2, tm(), func(p *Proc) error {
		if p.Rank() == 0 {
			return nil // exits without sending
		}
		_, err := p.World().Recv(0, 0)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

func TestSendDataIsCopied(t *testing.T) {
	_, err := Run(2, tm(), func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the in-flight message
			return nil
		}
		d, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if d[0] != 42 {
			t.Errorf("message mutated after send: %v", d[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlphaBetaModel(t *testing.T) {
	m := AlphaBeta{Alpha: 1e-5, Beta: 1e-8}
	got := m.Transfer(0, 1, 1000)
	want := 1e-5 + 1000e-8
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("Transfer = %v, want %v", got, want)
	}
}

func TestComputeNegativeIgnored(t *testing.T) {
	procs, err := Run(1, tm(), func(p *Proc) error {
		p.Compute(-5)
		p.Compute(2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if procs[0].Clock() != 2 {
		t.Errorf("clock = %v", procs[0].Clock())
	}
}

func BenchmarkHaloExchange64Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(64, tm(), func(p *Proc) error {
			c := p.World()
			me := p.Rank()
			x, y := me%8, me/8
			data := make([]float64, 64)
			var reqs []*Request
			for _, nb := range [][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
				if nb[0] < 0 || nb[0] >= 8 || nb[1] < 0 || nb[1] >= 8 {
					continue
				}
				r := nb[1]*8 + nb[0]
				reqs = append(reqs, c.Isend(r, 0, data), c.Irecv(r, 0))
			}
			return WaitAll(reqs...)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestPhaseStats checks the per-rank, per-phase breakdown: compute,
// wait, transfer, message and byte counts land in the phase that was
// open when the activity happened.
func TestPhaseStats(t *testing.T) {
	model := AlphaBeta{Alpha: 1, Beta: 0} // 1s per message, size-free
	procs, err := Run(2, model, func(p *Proc) error {
		c := p.World()
		p.BeginPhase("compute")
		p.Compute(3)
		p.BeginPhase("exchange")
		if p.Rank() == 0 {
			p.Compute(2) // rank 0 sends late so rank 1 must wait
			c.Send(1, 0, []float64{1, 2})
			return nil
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	r0 := procs[0].Phases()
	if len(r0) != 2 || r0[0].Name != "compute" || r0[1].Name != "exchange" {
		t.Fatalf("rank 0 phases = %+v", r0)
	}
	if r0[0].Stats.Compute != 3 {
		t.Errorf("rank 0 compute-phase compute = %v, want 3", r0[0].Stats.Compute)
	}
	ex0 := r0[1].Stats
	if ex0.Compute != 2 || ex0.SendCount != 1 || ex0.SendBytes != 16 || ex0.Transfer != 1 {
		t.Errorf("rank 0 exchange stats = %+v", ex0)
	}

	ex1 := procs[1].Phases()[1].Stats
	// Rank 1 reaches Recv at t=3; the message arrives at 3+2+1=6.
	if math.Abs(ex1.Wait-3) > 1e-12 {
		t.Errorf("rank 1 wait = %v, want 3", ex1.Wait)
	}
	if ex1.RecvCount != 1 || ex1.RecvBytes != 16 {
		t.Errorf("rank 1 recv stats = %+v", ex1)
	}
	if procs[1].WaitTime() != ex1.Wait {
		t.Errorf("phase wait %v disagrees with WaitTime %v", ex1.Wait, procs[1].WaitTime())
	}
}

// TestPhaseReopenAccumulates re-opens a phase and checks accumulation
// continues rather than starting a second entry.
func TestPhaseReopenAccumulates(t *testing.T) {
	procs, err := Run(1, tm(), func(p *Proc) error {
		p.BeginPhase("a")
		p.Compute(1)
		p.BeginPhase("b")
		p.Compute(10)
		p.BeginPhase("a")
		p.Compute(2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := procs[0].Phases()
	if len(phases) != 2 {
		t.Fatalf("phases = %+v", phases)
	}
	if phases[0].Stats.Compute != 3 || phases[1].Stats.Compute != 10 {
		t.Errorf("phases = %+v", phases)
	}
}

// TestPhasesOffByDefault: without BeginPhase no breakdown is recorded
// and behavior is unchanged.
func TestPhasesOffByDefault(t *testing.T) {
	procs, err := Run(2, tm(), func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			return nil
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if got := p.Phases(); got != nil {
			t.Errorf("rank %d has phases without BeginPhase: %+v", p.Rank(), got)
		}
	}
}

func TestAggregatePhases(t *testing.T) {
	procs, err := Run(4, AlphaBeta{Alpha: 1}, func(p *Proc) error {
		c := p.World()
		p.BeginPhase("halo")
		p.Compute(float64(p.Rank()))
		if p.Rank() > 0 {
			c.Send(0, 0, []float64{1})
			return nil
		}
		for r := 1; r < c.Size(); r++ {
			if _, err := c.Recv(r, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := AggregatePhases(procs)
	if len(totals) != 1 || totals[0].Name != "halo" || totals[0].Ranks != 4 {
		t.Fatalf("totals = %+v", totals)
	}
	if totals[0].Sum.Compute != 0+1+2+3 {
		t.Errorf("summed compute = %v, want 6", totals[0].Sum.Compute)
	}
	if totals[0].Sum.SendCount != 3 || totals[0].Sum.RecvCount != 3 {
		t.Errorf("message counts = %+v", totals[0].Sum)
	}
	if totals[0].MaxWait != procs[0].WaitTime() {
		t.Errorf("MaxWait = %v, want rank 0's wait %v", totals[0].MaxWait, procs[0].WaitTime())
	}
}
