// Package hbm models the per-GPU HBM2 DRAM stack. The attacks never
// look inside DRAM — they only see its latency through L2 misses — so
// the model is deliberately small: a fixed service latency with light
// row-buffer locality, plus the traffic accounting the Sec. VII
// detection study consumes.
package hbm

import (
	"spybox/internal/arch"
)

// RowSize is the modelled DRAM row-buffer span. Consecutive accesses
// within a row are marginally cheaper, mirroring the mild locality
// effects visible in the paper's histograms (the miss cluster has
// spread even in a quiet machine).
const RowSize = 2 << 10

// Stack is one GPU's HBM.
type Stack struct {
	//spylint:allow resetcomplete identity is fixed at construction; Reset rewinds state, not wiring
	dev arch.DeviceID
	// lineSize is the bytes per L2 fill, from the machine profile.
	//spylint:allow resetcomplete geometry is config-derived, identical across trials
	lineSize uint64
	// lat is the DRAM service latency beyond the L2 lookup.
	//spylint:allow resetcomplete latency is config-derived, identical across trials
	lat arch.Cycles

	openRow   uint64
	haveRow   bool
	reads     uint64
	rowHits   uint64
	bytesRead uint64
}

// NewSized returns the HBM stack for device dev serving L2 fills of
// lineSize bytes with the given DRAM latency. The fill size must come
// from the machine's cache geometry: traffic accounting (Sec. VII)
// counts bytesRead per fill, which is wrong for any non-128 B profile
// if the P100 constant is hard-coded.
func NewSized(dev arch.DeviceID, lineSize int, lat arch.Cycles) *Stack {
	return &Stack{dev: dev, lineSize: uint64(lineSize), lat: lat}
}

// Device returns the GPU this stack belongs to.
func (s *Stack) Device() arch.DeviceID { return s.dev }

// LineSize returns the bytes served per L2 fill.
func (s *Stack) LineSize() int { return int(s.lineSize) }

// ReadLine services an L2 fill for the line at pa and returns the DRAM
// portion of the latency (the cycles beyond the L2 lookup itself).
func (s *Stack) ReadLine(pa arch.PA) arch.Cycles {
	s.reads++
	s.bytesRead += s.lineSize
	row := uint64(pa) / RowSize
	lat := s.lat
	if s.haveRow && row == s.openRow {
		s.rowHits++
		lat -= s.lat / 8 // open-row discount
	}
	s.openRow, s.haveRow = row, true
	return lat
}

// Stats returns cumulative read counters.
func (s *Stack) Stats() (reads, rowHits, bytesRead uint64) {
	return s.reads, s.rowHits, s.bytesRead
}

// ResetStats clears the counters (row state persists, as on hardware).
func (s *Stack) ResetStats() {
	s.reads, s.rowHits, s.bytesRead = 0, 0, 0
}

// Reset restores the stack to its freshly constructed state: counters
// cleared and the row buffer closed, so a pooled machine's first fill
// sees the same cold row a fresh machine's would.
func (s *Stack) Reset() {
	s.ResetStats()
	s.openRow, s.haveRow = 0, false
}

// CopyFrom copies src's row buffer and counters onto s, a stack of the
// same machine configuration.
func (s *Stack) CopyFrom(src *Stack) {
	s.openRow, s.haveRow = src.openRow, src.haveRow
	s.reads, s.rowHits, s.bytesRead = src.reads, src.rowHits, src.bytesRead
}
