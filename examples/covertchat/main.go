// Covertchat: sends a message from a trojan on GPU0 to a spy on GPU1
// through L2 cache contention — the paper's Sec. IV attack end to
// end: discovery, cross-process alignment, transmission, decode.
// Built entirely on the public pkg/spybox machine-scripting API.
//
// Usage: covertchat [-sets N] [-msg TEXT]
package main

import (
	"flag"
	"fmt"
	"log"

	"spybox/pkg/spybox"
)

func main() {
	numSets := flag.Int("sets", 4, "parallel cache sets (the Fig. 9 x-axis)")
	msg := flag.String("msg", "Hello! How are you?", "message to transmit covertly")
	flag.Parse()

	m := spybox.MustNewMachine(spybox.MachineOptions{Seed: 1234})
	prof, err := spybox.CharacterizeTiming(m, 0, 1, 48, 5)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("discovering eviction sets (trojan on GPU0, spy on GPU1)...")
	trojan, err := spybox.NewAttacker(m, 0, 0, 256, prof.Thresholds, 11)
	if err != nil {
		log.Fatal(err)
	}
	spy, err := spybox.NewAttacker(m, 1, 0, 256, prof.Thresholds, 22)
	if err != nil {
		log.Fatal(err)
	}
	tg, err := trojan.DiscoverPageGroups(trojan.Ways())
	if err != nil {
		log.Fatal(err)
	}
	sg, err := spy.DiscoverPageGroups(spy.Ways())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("aligning %d cache-set channels across processes...\n", *numSets)
	pairs, err := spybox.AlignChannels(trojan, spy,
		trojan.AllEvictionSets(tg, trojan.Ways()),
		spy.AllEvictionSets(sg, spy.Ways()), *numSets)
	if err != nil {
		log.Fatal(err)
	}

	ch, err := spybox.NewChannel(trojan, spy, pairs, spybox.DefaultCovertConfig())
	if err != nil {
		log.Fatal(err)
	}
	tx, err := ch.Transmit([]byte(*msg))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntrojan sent:  %q\n", *msg)
	fmt.Printf("spy received: %q\n", string(spybox.BitsToBytes(tx.ReceivedBits)))
	fmt.Printf("bit errors:   %d/%d (%.2f%%)\n", tx.BitErrors, len(tx.SentBits), 100*tx.ErrorRate())
	fmt.Printf("bandwidth:    %.4f MB/s over %d sets (%.2f ms of GPU time)\n",
		tx.BandwidthMBps(), *numSets, 1000*m.Profile().Seconds(tx.Duration))

	fmt.Println("\nfirst probe samples (spy's view; ~630cy = '0', ~950cy = '1'):")
	for i, pt := range tx.Trace {
		if i >= 12 {
			break
		}
		fmt.Printf("  t=%-9d avg latency %.0f cycles\n", uint64(pt.T), pt.AvgLat)
	}
}
