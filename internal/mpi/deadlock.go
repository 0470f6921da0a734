package mpi

import (
	"errors"
	"fmt"
	"strings"
)

// ErrDeadlock is reported when every rank is blocked in Recv with no
// messages in flight. Concrete failures carry a *DeadlockError (which
// wraps this sentinel, so errors.Is(err, ErrDeadlock) keeps working)
// with the blocked-rank count and a bounded sample of what each was
// waiting on.
var ErrDeadlock = errors.New("mpi: deadlock: all ranks blocked in Recv with empty queues")

// deadlockSampleCap bounds DeadlockError.Sample so the report stays
// readable at 10k-rank worlds.
const deadlockSampleCap = 8

// RankWait is one blocked rank and the (source, tag, communicator)
// of the receive it is stuck in. Src is a global rank; Comm is the
// communicator id (0 is the world).
type RankWait struct {
	Rank, Src, Tag, Comm int
}

// DeadlockError describes a detected deadlock: how many of the
// still-alive ranks were blocked, with a bounded lowest-rank-first
// sample of their pending receives. It wraps ErrDeadlock for
// errors.Is.
type DeadlockError struct {
	Blocked int
	Alive   int
	Sample  []RankWait
}

// Error implements error.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: deadlock: %d of %d live ranks blocked in Recv with empty queues", e.Blocked, e.Alive)
	if len(e.Sample) > 0 {
		b.WriteString("; waiting on")
		for i, s := range e.Sample {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " rank %d<-(src %d, tag %d, comm %d)", s.Rank, s.Src, s.Tag, s.Comm)
		}
		if e.Blocked > len(e.Sample) {
			fmt.Fprintf(&b, ", ... (%d more)", e.Blocked-len(e.Sample))
		}
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrDeadlock) hold for DeadlockError.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// errBadRanks rejects a non-positive world size.
func errBadRanks(n int) error {
	return fmt.Errorf("mpi: need at least 1 rank, got %d", n)
}
