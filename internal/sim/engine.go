//go:build go1.23

// Package sim contains the conservative discrete-event engine that
// executes simulated GPU kernels and the Machine that ties devices,
// interconnect, and physical memory together.
//
// Kernels are ordinary Go functions, each running on a coroutine
// (iter.Pull). Every shared-hardware interaction (an L2/HBM access, a
// warp-parallel probe, a streaming touch) is one *event*: the worker
// parks with a pending request, and the parked worker with the
// smallest local clock (ties broken by worker ID) is serviced and
// resumed next. Because exactly one worker executes at a time, the
// simulation is fully serialized and deterministic: identical seeds
// give identical cycle-for-cycle runs, including all timing jitter.
//
// There is no lock. Control is a baton, and only its holder touches
// engine or hardware state. A parking worker pushes itself onto the
// parked heap (an indexed min-heap keyed by (clock, id), see sched.go),
// pops the minimal worker and services that worker's request. When the
// minimal worker is the parker itself — a lone kernel, or one running
// behind its peers' clocks — it just carries on. Otherwise it records
// the next worker and suspends, and Machine.Run's loop resumes that
// one. A coroutine switch stays on the calling thread, so handing the
// baton on never wakes another OS thread, and a worker's panic
// surfaces from its resume on Run's goroutine. A coroutine whose body
// returned idles on a small process-wide free list until a later
// Spawn, on any machine, reuses it.
//
// This mirrors how the attacks see the machine: each thread block has
// its own clock() domain, while the L2s, HBM and NVLink are globally
// shared and ordered.
package sim

import (
	"iter"
	"sync"
)

// engine serializes workers by simulated time. Its state belongs to
// the baton holder: a worker during a run, the caller of Machine.Run
// (or Spawn, Reset) between runs.
type engine struct {
	parked  parkedHeap
	nextID  int
	eventNo uint64
	// next is the worker dispatch popped last: the one runAll resumes
	// next, or nil once no worker is left. It is set before that
	// worker's request is serviced, so an aborting run finds it.
	next *Worker
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
	e.next = nil
}

// copyFrom takes src's worker numbering and event count, so workers
// spawned next get the IDs and event numbers they would get on src.
// Both engines must be between runs.
func (e *engine) copyFrom(src *engine) {
	if e.parked.len() != 0 || src.parked.len() != 0 {
		panic("sim: engine copy with live workers")
	}
	e.nextID = src.nextID
	e.eventNo = src.eventNo
	e.next = nil
}

// register parks a new worker at its launch clock with no pending
// request and hands its body to a coroutine, which first runs it when
// runAll resumes the worker.
func (e *engine) register(w *Worker, body func()) {
	w.id = e.nextID
	e.nextID++
	w.heapIdx = noHeapIdx
	// Every live worker may be parked at once (a launch storm parks all
	// blocks at clock 0): the parked ones, this one, and the spawning
	// baton holder. Size the heap for that now so the event loop never
	// grows it.
	e.parked.grow(e.parked.len() + 2)
	e.parked.push(w)
	w.co = getCoro()
	w.co.body = body
}

// coro is a reusable worker coroutine that runs one body after
// another. resume runs it until it suspends, reporting whether the
// body has returned; suspend, called from inside the body, hands
// control back to resume's caller and reports false when stop is
// unwinding the coroutine. Between bodies it holds no body, so an idle
// coroutine references no worker or machine.
type coro struct {
	resume  func() (finished, alive bool)
	suspend func(finished bool) bool
	stop    func()
	body    func()
}

// maxIdleCoros bounds the free list. Past it, a finished coroutine
// exits instead.
const maxIdleCoros = 256

// coroPool is the free list of idle coroutines. Reuse saves each Spawn
// the coroutine's allocations and goroutine start. It matters most
// under the race detector, which keeps the state of every coroutine
// that ever exited.
//
//spylint:allow detrand an idle coroutine holds no body and no simulated state; which one runs a body cannot change it
var coroPool struct {
	sync.Mutex
	idle []*coro
}

// getCoro takes an idle coroutine, or starts a new one.
func getCoro() *coro {
	coroPool.Lock()
	if n := len(coroPool.idle); n > 0 {
		c := coroPool.idle[n-1]
		coroPool.idle = coroPool.idle[:n-1]
		coroPool.Unlock()
		return c
	}
	coroPool.Unlock()
	c := &coro{}
	c.resume, c.stop = iter.Pull(func(suspend func(bool) bool) {
		c.suspend = suspend
		for {
			c.body()
			c.body = nil
			if !c.suspend(true) {
				return
			}
		}
	})
	return c
}

// putCoro returns a coroutine whose body has returned to the free
// list, or stops it when the list is full.
func putCoro(c *coro) {
	coroPool.Lock()
	keep := len(coroPool.idle) < maxIdleCoros
	if keep {
		coroPool.idle = append(coroPool.idle, c)
	}
	coroPool.Unlock()
	if !keep {
		c.stop()
	}
}

// stopSignal unwinds a suspended worker's body when its run aborts.
type stopSignal struct{}

// yield parks the worker with a pending request and returns once the
// request has been serviced. The parking worker dispatches the next
// event itself; it suspends only when that event belongs to another
// worker, until runAll resumes it.
//
//spylint:hotpath
func (w *Worker) yield(req *request) {
	e := w.eng
	w.pending = req
	e.parked.push(w)
	if e.dispatch() != w {
		//spylint:allow hotalloc suspend is iter.Pull's yield, a coroutine switch that does not allocate
		if !w.co.suspend(false) {
			panic(stopSignal{})
		}
	}
}

// dispatch pops the (clock, id)-minimal parked worker into e.next,
// services its pending request and returns it as the next baton
// holder, or nil when no worker is left. Only the baton holder may
// call it.
//
//spylint:hotpath
func (e *engine) dispatch() *Worker {
	w := e.parked.popMin()
	e.next = w
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

// runAll runs every registered worker to completion, resuming each
// baton holder in turn. A panic from a worker body or from an event's
// service propagates out of the resume, and so out of runAll, after
// abort has unwound the other workers.
func (e *engine) runAll() {
	defer e.abort()
	e.dispatch()
	for e.next != nil {
		w := e.next
		if finished, _ := w.co.resume(); finished {
			w.done = true
			putCoro(w.co)
			w.co = nil
			e.dispatch()
		}
	}
}

// abort stops the coroutines a panicking run leaves behind: the worker
// popped last, if any, and every parked one. Stopping a suspended
// worker unwinds its body, running its defers (a kernel's block
// reservation release among them). After a clean run there is nothing
// to stop.
func (e *engine) abort() {
	if e.next != nil {
		e.next.abort()
		e.next = nil
	}
	for w := e.parked.popMin(); w != nil; w = e.parked.popMin() {
		w.abort()
	}
}

// abort stops the worker's coroutine, swallowing the stopSignal its
// body unwinds with. Stopping the coroutine of a body that panicked is
// a no-op. The worker counts as done, so a later run on the machine
// never counts it as a contender in jitterFor.
func (w *Worker) abort() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSignal); !ok {
				panic(r)
			}
		}
	}()
	w.done = true
	if c := w.co; c != nil {
		w.co = nil
		c.stop()
	}
}
