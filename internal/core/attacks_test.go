package core

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"spybox/internal/arch"
	"spybox/internal/cudart"
	"spybox/internal/l2cache"
	"spybox/internal/sim"
)

// discoverOn builds an attacker with discovered groups on a tiny
// machine, used by the geometry/alignment/covert tests.
func discoverOn(t *testing.T, m *sim.Machine, dev, target arch.DeviceID, pages int, seed uint64) (*Attacker, *PageGroups) {
	t.Helper()
	a, err := NewAttacker(m, dev, target, pages, DefaultThresholds(), seed)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := a.DiscoverPageGroups(4)
	if err != nil {
		t.Fatal(err)
	}
	return a, groups
}

func TestInferAssociativity(t *testing.T) {
	m := tinyMachine(31)
	a, groups := discoverOn(t, m, 0, 0, 24, 31)
	big := groups.Groups[0]
	if len(groups.Groups[1]) > len(big) {
		big = groups.Groups[1]
	}
	ways, err := a.InferAssociativity(big, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ways != 4 {
		t.Errorf("inferred associativity %d, want 4", ways)
	}
}

func TestInferLineSize(t *testing.T) {
	m := tinyMachine(32)
	// Fresh attacker whose pages were never touched.
	a, err := NewAttacker(m, 0, 0, 12, DefaultThresholds(), 99)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := a.InferLineSize(0)
	if err != nil {
		t.Fatal(err)
	}
	if ls != 128 {
		t.Errorf("inferred line size %d, want 128", ls)
	}
}

func TestInferReplacementPolicy(t *testing.T) {
	m := tinyMachine(33)
	a, groups := discoverOn(t, m, 0, 0, 24, 33)
	big := groups.Groups[0]
	if len(groups.Groups) > 1 && len(groups.Groups[1]) > len(big) {
		big = groups.Groups[1]
	}
	pol, err := a.InferReplacementPolicy(big, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pol != "LRU" {
		t.Errorf("policy = %q, want LRU", pol)
	}
}

func TestInferReplacementPolicyRandomized(t *testing.T) {
	cfg := tinyCache()
	cfg.Policy = l2cache.RandomRepl
	m := sim.MustNewMachine(sim.Options{Seed: 34, CacheCfg: cfg})
	a, err := NewAttacker(m, 0, 0, 24, DefaultThresholds(), 34)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := a.DiscoverPageGroups(4)
	if err != nil {
		t.Fatal(err)
	}
	big := groups.Groups[0]
	for _, g := range groups.Groups {
		if len(g) > len(big) {
			big = g
		}
	}
	if len(big) < 6 {
		t.Skipf("largest group too small: %d", len(big))
	}
	pol, err := a.InferReplacementPolicy(big, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if pol != "randomized" {
		t.Errorf("policy = %q, want randomized", pol)
	}
}

func TestInferGeometryTableI(t *testing.T) {
	m := tinyMachine(35)
	a, groups := discoverOn(t, m, 0, 0, 24, 35)
	fresh, err := NewAttacker(m, 0, 0, 10, DefaultThresholds(), 777)
	if err != nil {
		t.Fatal(err)
	}
	geo, err := a.InferGeometry(groups, 8, fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := Geometry{LineSize: 128, Ways: 4, Sets: 64, CacheBytes: 64 * 4 * 128, Policy: "LRU"}
	if geo != want {
		t.Errorf("geometry = %+v, want %+v", geo, want)
	}
	if geo.String() == "" {
		t.Error("empty geometry string")
	}
}

func TestValidateEvictionSetStaircase(t *testing.T) {
	m := tinyMachine(36)
	a, groups := discoverOn(t, m, 0, 0, 32, 36)
	big := groups.Groups[0]
	for _, g := range groups.Groups {
		if len(g) > len(big) {
			big = g
		}
	}
	maxLines := len(big) - 1
	if maxLines > 12 {
		maxLines = 12
	}
	points, err := a.ValidateEvictionSet(big, maxLines)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		wantEvicted := pt.LinesAccessed >= 4
		if pt.Evicted != wantEvicted {
			t.Errorf("k=%d: evicted=%v (lat %v), want %v",
				pt.LinesAccessed, pt.Evicted, pt.TargetLat, wantEvicted)
		}
	}
}

// alignedGroundTruth finds a (trojanSet, spySet) pair mapping to the
// same physical set, and one deliberately mismatched pair.
func alignedGroundTruth(t *testing.T, trojan, spy *Attacker, tg, sg *PageGroups) (te EvictionSet, seMatch, seMiss EvictionSet) {
	t.Helper()
	tsets := trojan.AllEvictionSets(tg, 4)
	ssets := spy.AllEvictionSets(sg, 4)
	physOf := func(a *Attacker, es EvictionSet) int { return trueSet(t, a, es.Lines[0]) }
	for _, ts := range tsets {
		tp := physOf(trojan, ts)
		for _, ss := range ssets {
			if physOf(spy, ss) == tp {
				for _, sm := range ssets {
					if physOf(spy, sm) != tp {
						return ts, ss, sm
					}
				}
			}
		}
	}
	t.Fatal("no aligned pair exists; discovery broken")
	return
}

func TestAlignPair(t *testing.T) {
	m := tinyMachine(41)
	trojan, tg := discoverOn(t, m, 0, 0, 24, 41)
	spy, sg := discoverOn(t, m, 1, 0, 24, 42)
	te, seMatch, seMiss := alignedGroundTruth(t, trojan, spy, tg, sg)

	avg, mapped, err := AlignPair(trojan, spy, te, seMatch, DefaultAlignConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !mapped {
		t.Errorf("matching pair not detected (avg %.0f)", avg)
	}
	avg, mapped, err = AlignPair(trojan, spy, te, seMiss, DefaultAlignConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mapped {
		t.Errorf("mismatched pair reported aligned (avg %.0f)", avg)
	}
}

func TestAlignSweepAndChannels(t *testing.T) {
	m := tinyMachine(43)
	trojan, tg := discoverOn(t, m, 0, 0, 24, 43)
	spy, sg := discoverOn(t, m, 1, 0, 24, 44)
	tsets := trojan.AllEvictionSets(tg, 4)
	ssets := spy.AllEvictionSets(sg, 4)
	if len(tsets) < 4 || len(ssets) != 64 {
		t.Fatalf("sets: trojan %d, spy %d", len(tsets), len(ssets))
	}
	idx, avgs, err := AlignSweep(trojan, spy, tsets[0], ssets, 3)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 {
		t.Fatal("sweep found no match")
	}
	if got, want := trueSet(t, spy, ssets[idx].Lines[0]), trueSet(t, trojan, tsets[0].Lines[0]); got != want {
		t.Errorf("sweep matched physical set %d, trojan uses %d (avg %.0f)", got, want, avgs[idx])
	}

	pairs, err := AlignChannels(trojan, spy, tsets, ssets, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("aligned %d pairs", len(pairs))
	}
	for _, p := range pairs {
		tp := trueSet(t, trojan, p.TE.Lines[0])
		sp := trueSet(t, spy, p.SE.Lines[0])
		if tp != sp {
			t.Errorf("pair misaligned: trojan set %d vs spy set %d", tp, sp)
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	msg := []byte("Hello! How are you?")
	bits := BytesToBits(msg)
	if len(bits) != len(msg)*8 {
		t.Fatalf("bit count %d", len(bits))
	}
	if got := BitsToBytes(bits); !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinSplitMerge(t *testing.T) {
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	for _, n := range []int{1, 2, 3, 4} {
		streams := splitRoundRobin(bits, n)
		if got := mergeRoundRobin(streams, len(bits)); !bytes.Equal(got, bits) {
			t.Errorf("n=%d: merge = %v", n, got)
		}
	}
}

func TestCovertChannelRoundTrip(t *testing.T) {
	m := tinyMachine(51)
	trojan, tg := discoverOn(t, m, 0, 0, 24, 51)
	spy, sg := discoverOn(t, m, 1, 0, 24, 52)
	pairs, err := AlignChannels(trojan, spy,
		trojan.AllEvictionSets(tg, 4), spy.AllEvictionSets(sg, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(trojan, spy, pairs, DefaultCovertConfig())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("Hi GPU")
	tx, err := ch.Transmit(msg)
	if err != nil {
		t.Fatal(err)
	}
	if rate := tx.ErrorRate(); rate > 0.05 {
		t.Errorf("error rate %.3f too high in quiet machine", rate)
	}
	if got := BitsToBytes(tx.ReceivedBits); !bytes.Equal(got, msg) && tx.BitErrors == 0 {
		t.Errorf("zero errors but message mismatch: %q", got)
	}
	if tx.BandwidthMBps() <= 0 {
		t.Error("bandwidth not positive")
	}
	if len(tx.Trace) == 0 {
		t.Error("no Fig. 10 trace recorded")
	}
}

func TestChannelValidation(t *testing.T) {
	if _, err := NewChannel(nil, nil, nil, CovertConfig{}); err == nil {
		t.Error("empty pair list accepted")
	}
}

func TestMonitorSeesVictimSets(t *testing.T) {
	m := tinyMachine(61)
	spy, sg := discoverOn(t, m, 1, 0, 24, 61)
	sets := spy.AllEvictionSets(sg, 4)

	// Victim on GPU0 hammers one specific line repeatedly; its true
	// set must light up in the memorygram while others stay dark.
	victim := cudart.MustNewProcess(m, 0, 62)
	vbuf, err := victim.Malloc(8 * arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	vpa, _ := victim.Translate(vbuf)
	victimSet := m.Device(0).L2().SetIndex(vpa)

	stop := false
	res, err := spy.MonitorConcurrent(sets, MonitorOptions{Epochs: 12, StopEarly: func() bool { return stop }}, func() error {
		return victim.Launch("victim", 0, func(k *cudart.Kernel) {
			defer func() { stop = true }()
			for i := 0; i < 3000; i++ {
				k.TouchCG(vbuf)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := res.SetTotals()
	// Find the monitored set index corresponding to the victim's set.
	hot := -1
	for si, es := range sets {
		if trueSet(t, spy, es.Lines[0]) == victimSet {
			hot = si
		}
	}
	if hot < 0 {
		t.Fatal("victim set not covered by spy sets")
	}
	if totals[hot] == 0 {
		t.Fatalf("victim activity invisible: totals[%d]=0", hot)
	}
	for si, tot := range totals {
		if si != hot && tot > totals[hot]/2 {
			t.Errorf("idle set %d shows %d misses (hot set has %d)", si, tot, totals[hot])
		}
	}
	if res.AvgMissesPerSet() <= 0 {
		t.Error("average misses not positive")
	}
	if len(res.EpochTotals()) != 12 {
		t.Errorf("epoch totals length %d", len(res.EpochTotals()))
	}
}

func TestMonitorValidation(t *testing.T) {
	m := tinyMachine(63)
	spy, sg := discoverOn(t, m, 1, 0, 24, 63)
	sets := spy.AllEvictionSets(sg, 4)
	if _, err := spy.MonitorConcurrent(nil, MonitorOptions{Epochs: 4}, nil); err == nil {
		t.Error("no sets accepted")
	}
	if _, err := spy.MonitorConcurrent(sets, MonitorOptions{Epochs: 0}, nil); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestMonitorQuietMachineIsDark(t *testing.T) {
	m := tinyMachine(64)
	spy, sg := discoverOn(t, m, 1, 0, 24, 64)
	sets := spy.AllEvictionSets(sg, 4)
	res, err := spy.MonitorConcurrent(sets, MonitorOptions{Epochs: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tot := range res.SetTotals() {
		total += tot
	}
	if total != 0 {
		t.Errorf("quiet machine shows %d misses", total)
	}
}

func TestMultiChannelTwoSpies(t *testing.T) {
	// Trojan on GPU0; spies on GPU1 and GPU2 (both NVLink-connected to
	// GPU0 in the DGX-1 quad), each carrying half the bit stream.
	m := tinyMachine(91)
	trojan, tg := discoverOn(t, m, 0, 0, 24, 91)
	spy1, sg1 := discoverOn(t, m, 1, 0, 24, 92)
	spy2, sg2 := discoverOn(t, m, 2, 0, 24, 93)
	tsets := trojan.AllEvictionSets(tg, 4)
	p1, err := AlignChannels(trojan, spy1, tsets[:2], spy1.AllEvictionSets(sg1, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := AlignChannels(trojan, spy2, tsets[2:4], spy2.AllEvictionSets(sg2, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMultiChannel(trojan, []Branch{{Spy: spy1, Pairs: p1}, {Spy: spy2, Pairs: p2}}, DefaultCovertConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mc.TotalSets() != 4 {
		t.Fatalf("TotalSets = %d", mc.TotalSets())
	}
	msg := []byte("multi-GPU fan-out")
	tx, err := mc.Transmit(msg)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ErrorRate() > 0.05 {
		t.Errorf("multichannel error rate %.3f", tx.ErrorRate())
	}
	if got := BitsToBytes(tx.ReceivedBits); tx.BitErrors == 0 && string(got) != string(msg) {
		t.Errorf("message mismatch: %q", got)
	}
}

func TestMultiChannelValidation(t *testing.T) {
	m := tinyMachine(94)
	trojan, _ := discoverOn(t, m, 0, 0, 24, 94)
	if _, err := NewMultiChannel(trojan, nil, CovertConfig{}); err == nil {
		t.Error("no branches accepted")
	}
	if _, err := NewMultiChannel(trojan, []Branch{{}}, CovertConfig{}); err == nil {
		t.Error("empty branch accepted")
	}
	// Spy targeting the wrong GPU must be rejected.
	spyWrong, wg := discoverOn(t, m, 2, 3, 24, 95)
	pairs := []AlignedPair{{TE: EvictionSet{Lines: []arch.VA{0}}, SE: spyWrong.AllEvictionSets(wg, 4)[0]}}
	if _, err := NewMultiChannel(trojan, []Branch{{Spy: spyWrong, Pairs: pairs}}, CovertConfig{}); err == nil {
		t.Error("mismatched spy target accepted")
	}
}

// TestChannelMatchesOneBranchMultiChannel pins that the two covert
// entry points run the same protocol: on identically seeded machines,
// a Channel and a one-branch MultiChannel over the same pairs and
// message produce identical transmissions, trace and timing included.
func TestChannelMatchesOneBranchMultiChannel(t *testing.T) {
	setup := func() (*Attacker, *Attacker, []AlignedPair) {
		m := tinyMachine(51)
		trojan, tg := discoverOn(t, m, 0, 0, 24, 51)
		spy, sg := discoverOn(t, m, 1, 0, 24, 52)
		pairs, err := AlignChannels(trojan, spy,
			trojan.AllEvictionSets(tg, 4), spy.AllEvictionSets(sg, 4), 2)
		if err != nil {
			t.Fatal(err)
		}
		return trojan, spy, pairs
	}
	msg := []byte("one protocol")

	trojan, spy, pairs := setup()
	ch, err := NewChannel(trojan, spy, pairs, DefaultCovertConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ch.Transmit(msg)
	if err != nil {
		t.Fatal(err)
	}

	trojan, spy, pairs = setup()
	mc, err := NewMultiChannel(trojan, []Branch{{Spy: spy, Pairs: pairs}}, DefaultCovertConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.Transmit(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one-branch MultiChannel differs from Channel:\n got %d errors, duration %d, %d trace points\nwant %d errors, duration %d, %d trace points",
			got.BitErrors, got.Duration, len(got.Trace), want.BitErrors, want.Duration, len(want.Trace))
	}
}
