// Package gpu assembles one GPU device of the simulated box: SMs with
// shared-memory and thread-block occupancy accounting, the L2 cache,
// and the HBM stack. SM count and resources come from the machine's
// architecture profile (56 SMs on the paper's P100). The occupancy
// model implements the "leftover policy" for GPU multiprogramming that
// Sec. VI exploits: thread blocks of the first kernel claim SM
// resources, and a second kernel's blocks co-reside only if shared
// memory and block slots remain.
package gpu

import (
	"fmt"
	"slices"

	"spybox/internal/arch"
	"spybox/internal/hbm"
	"spybox/internal/l2cache"
	"spybox/internal/xrand"
)

// Config fixes one device's resources: its L2 geometry plus the SM
// occupancy parameters. The zero Config is invalid; use DefaultConfig
// for the P100 or FromProfile for another architecture.
type Config struct {
	Cache l2cache.Config

	NumSMs               int
	SharedMemPerSM       int
	MaxSharedMemPerBlock int
	MaxBlocksPerSM       int

	// HBMLat is the DRAM service latency charged per L2 fill.
	HBMLat arch.Cycles
}

// DefaultConfig returns the P100 device configuration.
func DefaultConfig() Config {
	return FromProfile(arch.P100DGX1())
}

// FromProfile builds the device configuration of an architecture
// profile.
func FromProfile(p arch.Profile) Config {
	return Config{
		Cache:                l2cache.FromProfile(p),
		NumSMs:               p.NumSMs,
		SharedMemPerSM:       p.SharedMemPerSM,
		MaxSharedMemPerBlock: p.MaxSharedMemPerBlock,
		MaxBlocksPerSM:       p.MaxBlocksPerSM,
		HBMLat:               p.Lat.HBM,
	}
}

// Validate reports a descriptive error for malformed configurations
// (the cache geometry validates separately in l2cache.New).
func (c Config) Validate() error {
	switch {
	case c.NumSMs < 1:
		return fmt.Errorf("gpu: NumSMs must be positive, got %d", c.NumSMs)
	case c.SharedMemPerSM < c.MaxSharedMemPerBlock || c.MaxSharedMemPerBlock < 1:
		return fmt.Errorf("gpu: shared memory %d/%d (per SM / max per block) inconsistent",
			c.SharedMemPerSM, c.MaxSharedMemPerBlock)
	case c.MaxBlocksPerSM < 1:
		return fmt.Errorf("gpu: MaxBlocksPerSM must be positive, got %d", c.MaxBlocksPerSM)
	case c.HBMLat == 0:
		return fmt.Errorf("gpu: HBMLat must be positive, got %d", c.HBMLat)
	}
	return nil
}

// SM tracks the occupancy-relevant resources of one streaming
// multiprocessor. Registers are folded into the block-slot limit.
type SM struct {
	SharedFree int // bytes of shared memory still available
	BlockSlots int // resident thread-block slots still available
}

// BlockReservation records a thread block's placement so it can be
// released when the kernel finishes.
type BlockReservation struct {
	dev       *Device
	sm        int
	sharedMem int
	released  bool
}

// SMIndex returns the SM the block was placed on.
func (r *BlockReservation) SMIndex() int { return r.sm }

// Release returns the block's resources to its SM. Releasing twice is
// a no-op.
func (r *BlockReservation) Release() {
	if r == nil || r.released {
		return
	}
	r.released = true
	sm := &r.dev.sms[r.sm]
	sm.SharedFree += r.sharedMem
	sm.BlockSlots++
}

// Device is one GPU in the box.
type Device struct {
	//spylint:allow resetcomplete identity is fixed at construction; Reset rewinds state, not wiring
	id arch.DeviceID
	//spylint:allow resetcomplete config is fixed at construction, identical across trials
	cfg Config
	l2  *l2cache.Cache
	mem *hbm.Stack
	sms []SM

	nextSM int // round-robin placement cursor
}

// New builds a device from its configuration. rng seeds the cache
// replacement policy when it is randomized.
func New(id arch.DeviceID, cfg Config, rng *xrand.Source) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l2, err := l2cache.New(cfg.Cache, rng)
	if err != nil {
		return nil, err
	}
	d := &Device{
		id:  id,
		cfg: cfg,
		l2:  l2,
		mem: hbm.NewSized(id, cfg.Cache.LineSize, cfg.HBMLat),
		sms: make([]SM, cfg.NumSMs),
	}
	d.freeSMs()
	return d, nil
}

// Reset restores the device to its freshly constructed state: L2
// flushed with its replacement RNG re-derived from parent (consuming
// one parent draw, exactly as New's rng argument does), HBM rewound,
// and every SM's occupancy refilled. Outstanding BlockReservations
// must have been released first.
func (d *Device) Reset(parent *xrand.Source) {
	d.l2.Reset(parent)
	d.mem.Reset()
	d.freeSMs()
}

// freeSMs empties every SM and rewinds the placement cursor.
func (d *Device) freeSMs() {
	for i := range d.sms {
		d.sms[i] = SM{SharedFree: d.cfg.SharedMemPerSM, BlockSlots: d.cfg.MaxBlocksPerSM}
	}
	d.nextSM = 0
}

// Checkpoint is a copy of a device's state: a compact copy of its L2
// (see l2cache.Checkpoint), its HBM row buffer and counters, and SM
// occupancy. It is never modified after Device.Checkpoint returns.
type Checkpoint struct {
	l2     *l2cache.Checkpoint
	mem    hbm.Stack
	sms    []SM
	nextSM int
}

// Checkpoint copies d's L2, HBM and SM occupancy. Outstanding
// BlockReservations must have been released first: a reservation
// belongs to the device that placed it.
func (d *Device) Checkpoint() *Checkpoint {
	return &Checkpoint{l2: d.l2.Checkpoint(), mem: *d.mem, sms: slices.Clone(d.sms), nextSM: d.nextSM}
}

// Restore lays checkpoint cp, taken from a device of the same
// configuration, onto d. Outstanding BlockReservations on d must have
// been released first.
func (d *Device) Restore(cp *Checkpoint) {
	d.l2.Restore(cp.l2)
	d.mem.CopyFrom(&cp.mem)
	copy(d.sms, cp.sms)
	d.nextSM = cp.nextSM
}

// ID returns the device's identity.
func (d *Device) ID() arch.DeviceID { return d.id }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// L2 returns the device's L2 cache.
func (d *Device) L2() *l2cache.Cache { return d.l2 }

// HBM returns the device's DRAM stack.
func (d *Device) HBM() *hbm.Stack { return d.mem }

// NumSMs returns the SM count.
func (d *Device) NumSMs() int { return len(d.sms) }

// PlaceBlock reserves one thread-block residency with the given
// shared-memory demand, following the leftover policy: the next SM in
// round-robin order with sufficient resources hosts the block. It
// fails when no SM can host it, which is exactly the condition the
// Sec. VI occupancy-blocking defense engineers on purpose.
func (d *Device) PlaceBlock(sharedMemBytes int) (*BlockReservation, error) {
	if sharedMemBytes < 0 || sharedMemBytes > d.cfg.MaxSharedMemPerBlock {
		return nil, fmt.Errorf("gpu: shared memory request %d outside [0,%d]",
			sharedMemBytes, d.cfg.MaxSharedMemPerBlock)
	}
	n := len(d.sms)
	for probe := 0; probe < n; probe++ {
		i := (d.nextSM + probe) % n
		sm := &d.sms[i]
		if sm.BlockSlots > 0 && sm.SharedFree >= sharedMemBytes {
			sm.BlockSlots--
			sm.SharedFree -= sharedMemBytes
			d.nextSM = (i + 1) % n
			return &BlockReservation{dev: d, sm: i, sharedMem: sharedMemBytes}, nil
		}
	}
	return nil, fmt.Errorf("gpu: %v: no SM can host a block needing %d B shared memory",
		d.id, sharedMemBytes)
}

// FreeSharedMem reports total unreserved shared memory across SMs.
func (d *Device) FreeSharedMem() int {
	t := 0
	for i := range d.sms {
		t += d.sms[i].SharedFree
	}
	return t
}

// ResidentBlocks reports how many thread blocks are currently placed.
func (d *Device) ResidentBlocks() int {
	t := 0
	for i := range d.sms {
		t += d.cfg.MaxBlocksPerSM - d.sms[i].BlockSlots
	}
	return t
}

// SMState returns a copy of SM occupancy (test and report helper).
func (d *Device) SMState() []SM {
	return append([]SM(nil), d.sms...)
}
