package gpu

import (
	"testing"

	"spybox/internal/arch"
)

func newDevice(t *testing.T) *Device {
	t.Helper()
	d, err := New(0, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceConstruction(t *testing.T) {
	d := newDevice(t)
	if d.ID() != 0 || d.NumSMs() != arch.NumSMs {
		t.Errorf("ID=%v SMs=%d", d.ID(), d.NumSMs())
	}
	if d.L2() == nil || d.HBM() == nil {
		t.Fatal("missing L2 or HBM")
	}
	if d.FreeSharedMem() != arch.NumSMs*arch.SharedMemPerSM {
		t.Errorf("FreeSharedMem = %d", d.FreeSharedMem())
	}
}

func TestPlaceBlockRoundRobin(t *testing.T) {
	d := newDevice(t)
	r1, err := d.PlaceBlock(1024)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := d.PlaceBlock(1024)
	if r1.SMIndex() == r2.SMIndex() {
		t.Error("consecutive blocks placed on same SM despite free SMs")
	}
	if d.ResidentBlocks() != 2 {
		t.Errorf("ResidentBlocks = %d", d.ResidentBlocks())
	}
	r1.Release()
	r2.Release()
	if d.ResidentBlocks() != 0 {
		t.Errorf("after release, ResidentBlocks = %d", d.ResidentBlocks())
	}
}

func TestReleaseIdempotent(t *testing.T) {
	d := newDevice(t)
	r, _ := d.PlaceBlock(2048)
	r.Release()
	r.Release() // must not double-credit
	if got := d.FreeSharedMem(); got != arch.NumSMs*arch.SharedMemPerSM {
		t.Errorf("FreeSharedMem = %d after double release", got)
	}
	var nilRes *BlockReservation
	nilRes.Release() // no panic
}

func TestPlaceBlockValidation(t *testing.T) {
	d := newDevice(t)
	if _, err := d.PlaceBlock(-1); err == nil {
		t.Error("negative shared memory accepted")
	}
	if _, err := d.PlaceBlock(arch.MaxSharedMemPerBlock + 1); err == nil {
		t.Error("over-limit shared memory accepted")
	}
}

func TestOccupancyBlocking(t *testing.T) {
	// The Sec. VI defense: two 32 KB blocks saturate each SM's 64 KB
	// of shared memory. After 2*NumSMs such blocks, a kernel that
	// needs any shared memory cannot be placed, but a zero-shared-mem
	// block still can (block slots remain).
	d := newDevice(t)
	var reservations []*BlockReservation
	for i := 0; i < 2*arch.NumSMs; i++ {
		r, err := d.PlaceBlock(arch.MaxSharedMemPerBlock)
		if err != nil {
			t.Fatalf("blocking block %d rejected: %v", i, err)
		}
		reservations = append(reservations, r)
	}
	if d.FreeSharedMem() != 0 {
		t.Fatalf("shared memory not saturated: %d free", d.FreeSharedMem())
	}
	if _, err := d.PlaceBlock(1); err == nil {
		t.Fatal("noise block needing shared memory was placed on a saturated GPU")
	}
	if _, err := d.PlaceBlock(0); err != nil {
		t.Fatalf("zero-shared-mem block should still fit: %v", err)
	}
	for _, r := range reservations {
		r.Release()
	}
	if _, err := d.PlaceBlock(1); err != nil {
		t.Fatalf("after release, placement failed: %v", err)
	}
}

func TestBlockSlotExhaustion(t *testing.T) {
	d := newDevice(t)
	total := arch.NumSMs * arch.MaxBlocksPerSM
	for i := 0; i < total; i++ {
		if _, err := d.PlaceBlock(0); err != nil {
			t.Fatalf("block %d/%d rejected: %v", i, total, err)
		}
	}
	if _, err := d.PlaceBlock(0); err == nil {
		t.Fatal("exceeded block-slot capacity without error")
	}
}

func TestSMStateCopy(t *testing.T) {
	d := newDevice(t)
	st := d.SMState()
	st[0].SharedFree = -1 // mutating the copy must not affect device
	if d.SMState()[0].SharedFree == -1 {
		t.Error("SMState returned shared slice")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := func(mut func(*Config)) Config {
		c := DefaultConfig()
		mut(&c)
		return c
	}
	for name, c := range map[string]Config{
		"no SMs":         bad(func(c *Config) { c.NumSMs = 0 }),
		"block over SM":  bad(func(c *Config) { c.MaxSharedMemPerBlock = c.SharedMemPerSM + 1 }),
		"no block slots": bad(func(c *Config) { c.MaxBlocksPerSM = 0 }),
		"no HBM latency": bad(func(c *Config) { c.HBMLat = 0 }),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if _, err := New(0, c, nil); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
	}
}
