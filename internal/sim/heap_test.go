package sim

import "container/heap"

// heapQ is the binary-heap event queue, the timing wheel's ordering oracle:
// the simplest structure that pops events in exact (at, seq) order.
type heapQ struct {
	h eventHeap
}

func (q *heapQ) push(ev *event)   { heap.Push(&q.h, ev) }
func (q *heapQ) update(ev *event) { heap.Fix(&q.h, ev.index) }
func (q *heapQ) peek(limit Time) (Time, bool) {
	if len(q.h) == 0 || q.h[0].at > limit {
		return 0, false
	}
	return q.h[0].at, true
}
func (q *heapQ) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}
func (q *heapQ) size() int { return len(q.h) }

// newHeapEngine returns an engine like New(seed) but running on the
// binary-heap oracle instead of the timing wheel.
func newHeapEngine(seed int64) *Engine {
	e := New(seed)
	e.q = &heapQ{}
	return e
}
