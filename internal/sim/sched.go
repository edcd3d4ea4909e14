// The parked-worker scheduler queue: an indexed binary min-heap keyed
// by (clock, id), and the engine's only data structure. Every
// simulated L2/HBM access pushes its worker here and the baton holder
// pops the next event from it, so push/pop is the simulator's hottest
// scheduling step: allocation-free and O(log n).
package sim

// parkedHeap orders parked workers by (clock, id), the same total
// order the engine has always serviced events in: smallest local clock
// first, ties broken by the lower worker ID. Each worker caches its
// heap position in heapIdx, making membership checks and future
// reposition operations O(1) to locate.
type parkedHeap struct {
	ws []*Worker
}

// noHeapIdx marks a worker that is not currently in the heap.
const noHeapIdx = -1

func (h *parkedHeap) len() int { return len(h.ws) }

// grow pre-sizes the backing array for at least n parked workers, so a
// kernel launch storm (every block parking its first event at once)
// never pays append growth inside the event loop.
func (h *parkedHeap) grow(n int) {
	if cap(h.ws) >= n {
		return
	}
	ws := make([]*Worker, len(h.ws), n)
	copy(ws, h.ws)
	h.ws = ws
}

func (h *parkedHeap) less(i, j int) bool {
	a, b := h.ws[i], h.ws[j]
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

func (h *parkedHeap) swap(i, j int) {
	h.ws[i], h.ws[j] = h.ws[j], h.ws[i]
	h.ws[i].heapIdx = i
	h.ws[j].heapIdx = j
}

// push adds a freshly parked worker. Under -tags simdebug the index
// doubles as a scheduler invariant: a worker must never be parked
// twice without being serviced in between, and the whole heap is
// re-verified after every mutation.
//
//spylint:hotpath
func (h *parkedHeap) push(w *Worker) {
	if simDebug && w.heapIdx != noHeapIdx {
		panic("sim: worker parked while already in the scheduler heap")
	}
	w.heapIdx = len(h.ws)
	h.ws = append(h.ws, w)
	h.up(w.heapIdx)
	if simDebug {
		h.verify()
	}
}

// verify checks the full heap invariant — parent ordering and heapIdx
// consistency — and panics on violation. Compiled to a no-op call site
// unless built with -tags simdebug.
func (h *parkedHeap) verify() {
	if !simDebug {
		return
	}
	for i := range h.ws {
		if h.ws[i].heapIdx != i {
			panic("sim: parked heap index out of sync with worker")
		}
		if i > 0 && h.less(i, (i-1)/2) {
			panic("sim: parked heap ordering invariant violated")
		}
	}
}

// popMin removes and returns the (clock, id)-minimal parked worker.
// Returns nil on an empty heap, which ends the engine's run.
//
//spylint:hotpath
func (h *parkedHeap) popMin() *Worker {
	if len(h.ws) == 0 {
		return nil
	}
	min := h.ws[0]
	last := len(h.ws) - 1
	h.swap(0, last)
	h.ws[last] = nil // release the reference for GC
	h.ws = h.ws[:last]
	if last > 0 {
		h.down(0)
	}
	min.heapIdx = noHeapIdx
	if simDebug {
		h.verify()
	}
	return min
}

func (h *parkedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *parkedHeap) down(i int) {
	n := len(h.ws)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.less(l, least) {
			least = l
		}
		if r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h.swap(i, least)
		i = least
	}
}
