package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Random push/pop interleavings on a mailbox's queues, none more than
// six messages deep, keep every key's FIFO order against a plain-slice
// model while the keys share the mailbox's overflow, and between them
// take a queue through each of its states: inline, spilled, drained,
// and inline again.
func TestMsgqFIFOProperty(t *testing.T) {
	const keys, maxDepth = 3, 6
	var spills, drains, refills int
	prop := func(ops []uint8) bool {
		var mb mailbox
		for k := 0; k < keys; k++ {
			mb.qs = append(mb.qs, msgq{key: matchKey{src: int32(k), tag: k}})
		}
		var model [keys][]float64
		var spilled, drained [keys]bool
		seq := 0.0
		for _, op := range ops {
			k := int(op) % keys
			qi, q := int32(k), &mb.qs[k]
			push := op&0x80 != 0
			switch len(model[k]) {
			case 0:
				push = true
			case maxDepth:
				push = false
			}
			held := q.held
			if push {
				seq++
				mb.push(qi, message{data: []float64{seq}, arrival: seq})
				model[k] = append(model[k], seq)
			} else {
				msg := mb.pop(qi)
				if msg.arrival != model[k][0] || msg.data[0] != model[k][0] {
					t.Logf("key %d: popped %v, want %v", k, msg.arrival, model[k][0])
					return false
				}
				model[k] = model[k][1:]
			}
			if q.empty() != (len(model[k]) == 0) {
				t.Logf("key %d: empty() = %v with %d queued", k, q.empty(), len(model[k]))
				return false
			}
			switch over := q.spilled > 0; {
			case over && !spilled[k]:
				spills++
				spilled[k] = true
			case !over && spilled[k]:
				drains++
				spilled[k], drained[k] = false, true
			case push && drained[k] && q.held > held:
				refills++
				drained[k] = false
			}
		}
		for k := range mb.qs {
			for _, want := range model[k] {
				if got := mb.pop(int32(k)).arrival; got != want {
					t.Logf("key %d: drained %v, want %v", k, got, want)
					return false
				}
			}
			if !mb.qs[k].empty() {
				return false
			}
		}
		// A drained overflow is reset, so its backing array is reused.
		return len(mb.over) == 0 && mb.overHead == 0
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if spills == 0 || drains == 0 || refills == 0 {
		t.Errorf("transitions seen: %d spills, %d drains, %d inline refills; want each at least once", spills, drains, refills)
	}
}
