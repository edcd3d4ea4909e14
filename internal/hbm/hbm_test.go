package hbm

import (
	"testing"

	"spybox/internal/arch"
)

// newP100 returns a stack with the P100's fill size and latency.
func newP100(dev arch.DeviceID) *Stack {
	return NewSized(dev, arch.CacheLineSize, arch.LatHBM)
}

func TestReadLineLatency(t *testing.T) {
	s := newP100(0)
	// Cold access: full HBM latency.
	if got := s.ReadLine(arch.PA(0)); got != arch.LatHBM {
		t.Errorf("cold read latency = %v, want %v", got, arch.LatHBM)
	}
	// Same row: discounted.
	if got := s.ReadLine(arch.PA(128)); got >= arch.LatHBM {
		t.Errorf("open-row read latency = %v, want < %v", got, arch.LatHBM)
	}
	// Different row: full latency again.
	if got := s.ReadLine(arch.PA(4 * RowSize)); got != arch.LatHBM {
		t.Errorf("row-miss latency = %v, want %v", got, arch.LatHBM)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := newP100(3)
	if s.Device() != 3 {
		t.Errorf("Device = %v", s.Device())
	}
	s.ReadLine(0)
	s.ReadLine(128)  // row hit
	s.ReadLine(8192) // row miss
	reads, rowHits, bytes := s.Stats()
	if reads != 3 || rowHits != 1 || bytes != 3*arch.CacheLineSize {
		t.Errorf("stats = (%d,%d,%d)", reads, rowHits, bytes)
	}
	s.ResetStats()
	reads, rowHits, bytes = s.Stats()
	if reads != 0 || rowHits != 0 || bytes != 0 {
		t.Error("ResetStats did not clear")
	}
	// Row state survives the reset, as on hardware.
	if got := s.ReadLine(arch.PA(8192 + 128)); got >= arch.LatHBM {
		t.Error("open row forgotten across stats reset")
	}
}

// TestNewSizedUsesProfileLineSize guards the Sec. VII traffic
// accounting fix: bytesRead must count the configured fill size, not
// the hard-coded P100 128 B constant.
func TestNewSizedUsesProfileLineSize(t *testing.T) {
	s := NewSized(2, 256, 100)
	s.ReadLine(0)
	s.ReadLine(arch.PA(4 * RowSize))
	if _, _, bytes := s.Stats(); bytes != 512 {
		t.Errorf("bytesRead = %d after two 256 B fills, want 512", bytes)
	}
	if s.LineSize() != 256 {
		t.Errorf("LineSize() = %d", s.LineSize())
	}
}
