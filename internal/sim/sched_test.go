package sim

import (
	"fmt"
	"slices"
	"testing"

	"spybox/internal/arch"
	"spybox/internal/xrand"
)

// event is one serviced scheduling step: whose, and at what clock.
type event struct {
	id    int
	clock arch.Cycles
}

// TestSchedulerMatchesNaiveOrder is a differential test of the parked
// heap and the baton engine: random Busy/Yield scripts must be
// serviced in exactly the order a naive scheduler, which scans every
// parked worker for the minimal (clock, id), would service them.
func TestSchedulerMatchesNaiveOrder(t *testing.T) {
	for _, nw := range []int{1, 4, 16, 64} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("workers%d/seed%d", nw, seed), func(t *testing.T) {
				scripts := randomScripts(xrand.New(seed), nw)
				m := quiet(seed)
				got := engineOrder(t, m, scripts)
				want := naiveOrder(scripts, m.cfg.prof.Lat.ALUOp)
				if !slices.Equal(got, want) {
					t.Fatalf("engine order diverges from the naive reference:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// randomScripts gives each worker a list of Busy amounts, each one
// followed by a Yield. Amounts are small, so equal clocks — and with
// them the worker-ID tie-break — are common.
func randomScripts(r *xrand.Source, nw int) [][]int {
	scripts := make([][]int, nw)
	for i := range scripts {
		scripts[i] = make([]int, r.Intn(24))
		for j := range scripts[i] {
			scripts[i][j] = r.Intn(4)
		}
	}
	return scripts
}

// engineOrder runs the scripts on m and records every step at which a
// worker resumes — its first, then one per Yield — which is the order
// the engine serviced them in.
func engineOrder(t *testing.T, m *Machine, scripts [][]int) []event {
	t.Helper()
	var order []event
	for _, script := range scripts {
		script := script
		if _, err := m.Spawn(0, NoOwner, "script", 0, func(w *Worker) {
			order = append(order, event{w.id, w.Now()})
			for _, n := range script {
				w.Busy(n)
				w.Yield()
				order = append(order, event{w.id, w.Now()})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	return order
}

// naiveOrder replays the scripts with the simplest correct scheduler:
// every step, a linear scan for the parked worker with the smallest
// (clock, id).
func naiveOrder(scripts [][]int, aluOp arch.Cycles) []event {
	clock := make([]arch.Cycles, len(scripts))
	step := make([]int, len(scripts))
	live := make([]bool, len(scripts))
	for i := range live {
		live[i] = true
	}
	var order []event
	for {
		pick := -1
		for i := range scripts {
			if live[i] && (pick < 0 || clock[i] < clock[pick]) {
				pick = i
			}
		}
		if pick < 0 {
			return order
		}
		order = append(order, event{pick, clock[pick]})
		if step[pick] == len(scripts[pick]) {
			live[pick] = false // the body returns
			continue
		}
		clock[pick] += arch.Cycles(scripts[pick][step[pick]]) * aluOp
		step[pick]++
	}
}
