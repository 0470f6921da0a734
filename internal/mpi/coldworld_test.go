package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// A rank that fails strands its peers, which then report a deadlock.
// Run must return the root cause whichever rank index it landed on,
// and still return the deadlock when that is all there is.
func TestRunReturnsRootCauseOverDeadlock(t *testing.T) {
	boom := errors.New("boom")
	_, failed := Run(4, tm(), func(p *Proc) error {
		if p.Rank() == 3 {
			return boom
		}
		return p.World().Barrier() // ranks 0-2 wait on rank 3 forever
	})
	_, stuck := Run(4, tm(), func(p *Proc) error {
		if p.Rank() == 3 {
			return nil // exits cleanly, but never joins the barrier
		}
		return p.World().Barrier()
	})
	if !errors.Is(failed, boom) || errors.Is(failed, ErrDeadlock) {
		t.Errorf("rank 3 returned boom, Run returned %v", failed)
	}
	if !errors.Is(stuck, ErrDeadlock) {
		t.Errorf("no rank failed, Run returned %v, want the deadlock", stuck)
	}
}

// Messages that can unblock no one must not keep a stranded world
// looking busy: one sent to a rank that has exited, and one sitting in
// the mailbox of a rank blocked on a different key, used to leave the
// deadlock undeclared and Run waiting forever. A parked message must
// also count again once its receiver moves on to it.
func TestDeadlockDespiteUndeliverableMessages(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(4, tm(), func(p *Proc) error {
		w := p.World()
		switch p.Rank() {
		case 3:
			return boom
		case 2:
			w.Send(3, 1, []float64{1}) // to the failed rank: undeliverable
			w.Send(0, 5, []float64{2}) // reaches rank 0 while it wants tag 7
			_, err := w.Recv(0, 8)     // never sent
			return err
		case 1:
			if _, err := w.Recv(0, 4); err != nil {
				return err
			}
			w.Send(0, 7, nil)
			_, err := w.Recv(3, 1) // from the failed rank: never comes
			return err
		}
		w.Send(2, 9, nil) // rank 2 never asks for tag 9
		w.Send(1, 4, nil)
		if _, err := w.Recv(1, 7); err != nil {
			return err
		}
		d, err := w.Recv(2, 5) // parked or not meanwhile, it is still delivered
		if err != nil {
			return err
		}
		if len(d) != 1 || d[0] != 2 {
			t.Errorf("Recv(2, 5) = %v, want [2]", d)
		}
		_, err = w.Recv(3, 7) // from the failed rank: never comes
		return err
	})
	if !errors.Is(err, boom) {
		t.Errorf("Run returned %v, want boom", err)
	}
}

// funnelProgram makes rank 0 the receiver of 300 distinct (src, tag)
// queues, each holding two messages, fed in an order unrelated to the
// order it drains them in. It returns the rank function.
func funnelProgram(t *testing.T) (n int, fn func(p *Proc) error) {
	const senders, tags, depth = 100, 3, 2
	return senders + 1, func(p *Proc) error {
		w := p.World()
		if me := w.Rank(); me != 0 {
			p.Compute(float64(me%7) * 1e-6)
			for seq := 0; seq < depth; seq++ {
				for i := 0; i < tags; i++ {
					tag := (i + me) % tags // each sender starts on a different tag
					w.Send(0, tag, []float64{float64(me), float64(tag), float64(seq)})
				}
				p.Compute(1e-6)
			}
			return nil
		}
		// Drain the newest queues first, one message per queue per sweep.
		for seq := 0; seq < depth; seq++ {
			for tag := tags - 1; tag >= 0; tag-- {
				for src := senders; src >= 1; src-- {
					d, err := w.Recv(src, tag)
					if err != nil {
						return err
					}
					if got, want := fmt.Sprint(d), fmt.Sprint([]float64{float64(src), float64(tag), float64(seq)}); got != want {
						t.Errorf("Recv(src %d, tag %d) #%d = %s, want %s", src, tag, seq, got, want)
					}
					w.FreePayload(d)
				}
			}
		}
		return nil
	}
}

// A mailbox that outgrows its linear scan must keep per-key FIFO order
// and change no clock: the funnel root indexes its 300 queues, every
// other rank stays map-free, and all virtual-time observables equal the
// reference runtime's, recorded like referenceMixed.
func TestMailboxManyQueuesFIFOAndClocks(t *testing.T) {
	n, fn := funnelProgram(t)
	matchesReference(t, "funnelProgram", snapshotRun(t, n, fn),
		pinnedSnapshot{0x3ee0d3da29a40aae, 0x3ed0c6f7a0b5ed8d, "cf690f6c69822476168040e50dc664af0e6aa58fcd0c951a701016e73faede72"})

	procs, err := Run(n, tm(), fn)
	if err != nil {
		t.Fatal(err)
	}
	mboxes := procs[0].w.mboxes
	if got := len(mboxes[0].qs); got != 300 || mboxes[0].idx == nil {
		t.Errorf("funnel root: %d queues, indexed=%v; want 300, indexed", got, mboxes[0].idx != nil)
	}
	for r := 1; r < n; r++ {
		if mboxes[r].qs != nil || mboxes[r].idx != nil {
			t.Fatalf("rank %d received nothing but its mailbox allocated", r)
		}
	}
}

// Mailboxes sit in one slab, so each must fill whole cache lines or
// neighboring ranks' locks would false-share.
func TestMailboxFillsCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(mailbox{}); sz%64 != 0 {
		t.Errorf("mailbox is %d bytes, not a multiple of the 64-byte cache line", sz)
	}
}

// World set-up must cost a constant number of heap objects per rank:
// the Procs, communicators, mailboxes and payload caches come from
// slabs, and no map, queue or phase table exists before first use. What
// remains per rank is its goroutine's closure (measured: 1034 objects
// for 1024 ranks), plus a goroutine descriptor whenever the runtime has
// none to reuse, hence the budget of 2.
func TestRunSetupAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const n = 1024
	noop := func(*Proc) error { return nil }
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Run(n, tm(), noop); err != nil {
			t.Error(err)
		}
	})
	if perRank := avg / n; perRank > 2 {
		t.Errorf("Run(%d, noop): %.0f allocs, %.2f per rank, want at most 2", n, avg, perRank)
	}
}

// A rank that returns before a Split or a Barrier strands the rest in
// the collective's rendezvous, root or member alike. Run must return
// the rank's error when it has one, and otherwise a deadlock whose
// every sampled wait is on the collective's tag from its root, never
// hang.
func TestEarlyExitBeforeCollective(t *testing.T) {
	const n = 5
	boom := errors.New("boom")
	collectives := []struct {
		name string
		tag  int
		call func(c *Comm) error
	}{
		{"Barrier", tagBarrier, (*Comm).Barrier},
		{"Split", tagSplit, func(c *Comm) error { _, err := c.Split(c.Rank()%2, 0); return err }},
	}
	for _, col := range collectives {
		for _, quitter := range []int{0, n - 1} {
			for _, quitErr := range []error{boom, nil} {
				label := fmt.Sprintf("%s, rank %d returns %v", col.name, quitter, quitErr)
				done := make(chan error, 1)
				go func() {
					_, err := Run(n, tm(), func(p *Proc) error {
						if p.Rank() == quitter {
							return quitErr
						}
						return col.call(p.World())
					})
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: Run hung", label)
				}
				if quitErr != nil {
					if !errors.Is(err, quitErr) {
						t.Errorf("%s: Run returned %v", label, err)
					}
					continue
				}
				var de *DeadlockError
				if !errors.As(err, &de) {
					t.Errorf("%s: Run returned %v, want a *DeadlockError", label, err)
					continue
				}
				if de.Blocked != n-1 || len(de.Sample) != n-1 {
					t.Errorf("%s: %d blocked, %d sampled, want %d", label, de.Blocked, len(de.Sample), n-1)
				}
				for _, s := range de.Sample {
					if s.Src != 0 || s.Tag != col.tag || s.Comm != 0 {
						t.Errorf("%s: sampled wait %+v is not on the collective", label, s)
					}
				}
			}
		}
	}
}

// pingPongAllocs is what 1 000 round trips between two ranks allocate,
// with a garbage collection every 100, world set-up included.
func pingPongAllocs() float64 {
	return testing.AllocsPerRun(3, func() {
		_, _ = Run(2, tm(), func(p *Proc) error {
			w := p.World()
			buf := []float64{1, 2, 3, 4}
			peer := 1 - p.Rank()
			for i := 0; i < 1000; i++ {
				if p.Rank() == 0 && i%100 == 0 {
					runtime.GC()
				}
				if p.Rank() == 0 {
					w.Send(peer, 0, buf)
				}
				d, err := w.Recv(peer, 0)
				if err != nil {
					return err
				}
				w.FreePayload(d)
				if p.Rank() == 1 {
					w.Send(peer, 0, buf)
				}
			}
			return nil
		})
	})
}

// maxPingPongAllocs is pingPongAllocs as measured on go1.24
// linux/amd64: the world's set-up, two mailbox queues and the payload
// buffers. Pooled message headers, which every collection emptied, and
// rank caches made per class on first free measured 38.
const maxPingPongAllocs = 18

// A message is a value in its queue and a payload cycles through the
// fixed slots of the rank caches, so steady ping-pong allocates nothing
// once a world runs, collections or not.
func TestPingPongAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if got := pingPongAllocs(); got > maxPingPongAllocs {
		t.Errorf("1 000 ping-pongs with 10 collections: %v allocations, want at most %d", got, maxPingPongAllocs)
	}
}
