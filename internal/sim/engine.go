// Package sim contains the conservative discrete-event engine that
// executes simulated GPU kernels and the Machine that ties devices,
// interconnect, and physical memory together.
//
// Kernels are ordinary Go functions running in goroutines. Every
// shared-hardware interaction (an L2/HBM access, a warp-parallel
// probe, a streaming touch) is one *event*: the worker parks with a
// pending request, and the parked worker with the smallest local clock
// (ties broken by worker ID) is serviced and resumed next. Because
// exactly one worker executes at a time, the simulation is fully
// serialized and deterministic: identical seeds give identical
// cycle-for-cycle runs, including all timing jitter.
//
// There is no host loop and no lock. Control is a baton, and only its
// holder touches engine or hardware state. A parking worker pushes
// itself onto the parked heap (an indexed min-heap keyed by
// (clock, id), see sched.go), pops the minimal worker, services that
// worker's request and hands it the baton over its wake channel. When
// the minimal worker is the parker itself — a lone kernel, or one
// running behind its peers' clocks — it just carries on, with no
// goroutine switch at all. A finishing worker dispatches the next one
// the same way; the last one signals the engine's done channel. The
// channel handoffs are also the happens-before edges that make the
// serialized state race-free.
//
// This mirrors how the attacks see the machine: each thread block has
// its own clock() domain, while the L2s, HBM and NVLink are globally
// shared and ordered.
package sim

// engine serializes workers by simulated time. Its state belongs to
// the baton holder: a worker goroutine during a run, the caller of
// Machine.Run (or Spawn, Reset) between runs.
type engine struct {
	parked  parkedHeap
	nextID  int
	eventNo uint64
	// done ends a run: nil once the last worker finishes, or the value
	// a worker goroutine panicked with, for runAll to re-raise.
	done chan any
}

func newEngine() *engine {
	return &engine{done: make(chan any, 1)}
}

// reset rewinds the engine to its freshly constructed state so worker
// IDs and event numbers replay identically on a reused machine. It is
// only legal between runs, when no workers exist.
func (e *engine) reset() {
	if e.parked.len() != 0 {
		panic("sim: engine reset with live workers")
	}
	e.nextID = 0
	e.eventNo = 0
}

// register parks a new worker at its launch clock with no pending
// request and starts its goroutine, which waits for the baton before
// touching any shared state.
func (e *engine) register(w *Worker, body func(*Worker)) {
	w.id = e.nextID
	e.nextID++
	w.heapIdx = noHeapIdx
	w.wake = make(chan struct{}, 1)
	// Every live worker may be parked at once (a launch storm parks all
	// blocks at clock 0): the parked ones, this one, and the spawning
	// baton holder. Size the heap for that now so the event loop never
	// grows it.
	e.parked.grow(e.parked.len() + 2)
	e.parked.push(w)

	go func() {
		defer func() {
			// A panic from the body, or from servicing an event while
			// this goroutine held the baton, surfaces from Machine.Run.
			if r := recover(); r != nil {
				e.done <- r
			}
		}()
		growStack()
		<-w.wake
		body(w)
		w.done = true
		e.pass(e.dispatch())
	}()
}

// stackPad sizes growStack's frame so a worker's goroutine stack grows
// from the runtime's 2 KB start straight to 8 KB, which holds a kernel
// body plus, while the worker holds the baton, the whole event-service
// call chain.
const stackPad = 6 << 10

// growStack grows a fresh worker goroutine's stack in one step, while
// it is still empty and cheap to copy. Otherwise, in a process whose
// runtime has not yet learned a larger starting size, every kernel's
// stack grows by doubling mid-event, each time copying the deep
// service call chain.
//
//go:noinline
func growStack() {
	var pad [stackPad]byte
	keep(pad[:])
}

// keep stops the compiler from eliding growStack's pad.
//
//go:noinline
func keep([]byte) {}

// yield parks the worker with a pending request and returns once the
// request has been serviced. The parking worker dispatches the next
// event itself; it blocks only when that event belongs to another
// worker, until the baton comes back.
//
//spylint:hotpath
func (w *Worker) yield(req *request) {
	e := w.eng
	w.pending = req
	e.parked.push(w)
	if next := e.dispatch(); next != w {
		next.wake <- struct{}{}
		<-w.wake
	}
}

// dispatch pops the (clock, id)-minimal parked worker, services its
// pending request and returns it as the next baton holder, or nil when
// no worker is left. Only the baton holder may call it.
//
//spylint:hotpath
func (e *engine) dispatch() *Worker {
	w := e.parked.popMin()
	if w == nil {
		return nil
	}
	// A fresh worker's first, request-less pop is an event too: the
	// contention window in jitterFor counts it.
	e.eventNo++
	if req := w.pending; req != nil {
		w.pending = nil
		w.m.service(w, req)
	}
	return w
}

// pass hands the baton to next, or ends the run when next is nil.
func (e *engine) pass(next *Worker) {
	if next == nil {
		e.done <- nil
		return
	}
	next.wake <- struct{}{}
}

// runAll runs every registered worker to completion. It hands out the
// first baton and waits for the run to end, re-raising on the caller's
// goroutine any panic from a worker body or from an event's service.
func (e *engine) runAll() {
	e.pass(e.dispatch())
	if r := <-e.done; r != nil {
		panic(r)
	}
}
