package sim

import (
	"container/heap"
	"testing"
)

// fuzzLanes are FuzzScheduler's lane delays: small enough that lane events
// tie with heap events scheduled a few nanoseconds ahead.
var fuzzLanes = [...]Time{0, 3, 100}

// FuzzScheduler decodes its input into a program of AtCall, Lane.Call,
// Cancel and RunForEvents operations, runs it on a Simulator and on the
// container/heap reference (where a lane event is an ordinary entry keyed as
// AfterCall would key it), and fails on the first difference in fire order,
// Cancel result or Pending. Each operation is two bytes: an opcode and an
// argument.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 5, 1, 0, 0, 5, 2, 1, 4, 3})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 1, 1, 0, 1, 4, 7})
	f.Add([]byte{0, 100, 2, 2, 0, 200, 2, 2, 3, 1, 4, 1, 2, 1, 4, 6})
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := New(1)
		var lanes [len(fuzzLanes)]*Lane
		for i, d := range fuzzLanes {
			lanes[i] = s.Lane(d)
		}
		ref := &refSched{}
		type entry struct {
			id  EventID
			ref *refEvent
		}
		var issued []entry // heap events, live or stale, in schedule order
		var fired []int
		note := func(a, _ any) { fired = append(fired, a.(int)) }
		payload := 0 // the next event's payload: schedule order

		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i]%5, prog[i+1]
			switch op {
			case 0, 1: // AtCall 0–255 ns ahead: ties with other events and lane keys
				at := s.Now() + Time(arg)
				issued = append(issued, entry{s.AtCall(at, note, payload, nil), ref.schedule(at, payload)})
				payload++
			case 2: // Lane.Call
				l := int(arg) % len(lanes)
				lanes[l].Call(note, payload, nil)
				ref.schedule(s.Now()+fuzzLanes[l], payload)
				payload++
			case 3: // Cancel an issued heap event, live or stale
				if len(issued) == 0 {
					continue
				}
				e := issued[int(arg)%len(issued)]
				if got, want := s.Cancel(e.id), ref.cancel(e.ref); got != want {
					t.Fatalf("op %d: Cancel = %v, reference %v", i/2, got, want)
				}
			case 4: // RunForEvents
				n := int(arg % 8)
				fired = fired[:0]
				s.RunForEvents(uint64(n))
				for k := 0; k < n && len(ref.h) > 0; k++ {
					want := heap.Pop(&ref.h).(*refEvent).payload
					if k >= len(fired) || fired[k] != want {
						t.Fatalf("op %d: fire %d = %v, reference payload %d", i/2, k, fired, want)
					}
				}
			}
			if got, want := s.Pending(), len(ref.h); got != want {
				t.Fatalf("op %d: Pending() = %d, reference %d", i/2, got, want)
			}
		}
		fired = fired[:0]
		s.Run()
		want := ref.drain()
		if len(fired) != len(want) {
			t.Fatalf("drain fired %d events, reference %d", len(fired), len(want))
		}
		for k := range want {
			if fired[k] != want[k] {
				t.Fatalf("drain diverges at %d: payload %d, reference %d", k, fired[k], want[k])
			}
		}
	})
}
