package core

import (
	"testing"

	"spybox/internal/arch"
)

// bufferPAs translates every page of the attacker's probe buffer.
func bufferPAs(t *testing.T, a *Attacker) []arch.PA {
	t.Helper()
	out := make([]arch.PA, a.Pages)
	for i := range out {
		pa, err := a.Proc.Translate(a.LineVA(i, 0))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pa
	}
	return out
}

// TestAttackerRebind: an attacker pair rebound to a machine restored
// from a checkpoint translates its buffers to the same frames and
// draws the same random numbers as the original, and a condition run
// on the copy — a transmission, an allocation, RNG draws — gives what
// the same condition gives on the original, while leaving the original
// and the checkpoint untouched.
func TestAttackerRebind(t *testing.T) {
	m := tinyMachine(61)
	trojan, tg := discoverOn(t, m, 0, 0, 24, 61)
	spy, sg := discoverOn(t, m, 1, 0, 24, 62)
	pairs, err := AlignChannels(trojan, spy, trojan.AllEvictionSets(tg, 4), spy.AllEvictionSets(sg, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	trojanPAs, spyPAs := bufferPAs(t, trojan), bufferPAs(t, spy)
	rngBefore := *spy.Proc.RNG()

	var lastBuf arch.VA
	condition := func(trojan, spy *Attacker) []uint64 {
		t.Helper()
		ch, err := NewChannel(trojan, spy, pairs, DefaultCovertConfig())
		if err != nil {
			t.Fatal(err)
		}
		tx, err := ch.Transmit([]byte("rebind"))
		if err != nil {
			t.Fatal(err)
		}
		out := []uint64{uint64(tx.Duration), uint64(tx.BitErrors)}
		for _, b := range tx.ReceivedBits {
			out = append(out, uint64(b))
		}
		buf, err := spy.Proc.Malloc(arch.PageSize)
		lastBuf = buf
		if err != nil {
			t.Fatal(err)
		}
		pa, err := spy.Proc.Translate(buf)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, uint64(pa), spy.Proc.RNG().Uint64(), trojan.Proc.RNG().Uint64())
	}
	rebound := func(seed uint64) (*Attacker, *Attacker) {
		m := tinyMachine(seed)
		m.Restore(cp)
		return trojan.Rebind(m), spy.Rebind(m)
	}

	t2, s2 := rebound(99)
	if t2.Machine() == m || s2.Proc.Machine() == m {
		t.Fatal("rebound attackers still run on the original machine")
	}
	for i, pa := range bufferPAs(t, t2) {
		if pa != trojanPAs[i] {
			t.Fatalf("rebound trojan page %d at %v, original at %v", i, pa, trojanPAs[i])
		}
	}
	for i, pa := range bufferPAs(t, s2) {
		if pa != spyPAs[i] {
			t.Fatalf("rebound spy page %d at %v, original at %v", i, pa, spyPAs[i])
		}
	}
	if r := rngBefore; s2.Proc.RNG().Uint64() != r.Uint64() {
		t.Fatal("rebound spy's RNG draws differ from the original's")
	}

	t3, s3 := rebound(7)
	got := condition(t3, s3)
	s3Buf := lastBuf
	s3PA, err := s3.Proc.Translate(s3Buf)
	if err != nil {
		t.Fatal(err)
	}
	// Copies that diverge must not see each other: another copy
	// allocating elsewhere leaves this one's page table as it was.
	_, s5 := rebound(9)
	if _, err := s5.Proc.MallocOnDevice(2, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if pa, err := s3.Proc.Translate(s3Buf); err != nil || pa != s3PA {
		t.Fatalf("another copy's allocation moved this copy's page: %v (%v), was %v", pa, err, s3PA)
	}
	// Another restore must replay it: the first run left the checkpoint
	// as it was.
	t4, s4 := rebound(8)
	equalUint64s(t, "second restore", condition(t4, s4), got)
	// The original must still be where the checkpoint was taken: its
	// own run of the condition gives the same result.
	if *spy.Proc.RNG() != rngBefore {
		t.Fatal("running on a rebound copy advanced the original's RNG")
	}
	equalUint64s(t, "original", condition(trojan, spy), got)
}

func equalUint64s(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths differ: %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: diverges at entry %d: %d vs %d", what, i, got[i], want[i])
		}
	}
}
