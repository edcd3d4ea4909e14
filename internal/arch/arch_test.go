package arch

import (
	"testing"
	"testing/quick"
)

func TestMakeSplitPARoundTrip(t *testing.T) {
	f := func(devRaw uint8, offRaw uint32) bool {
		dev := DeviceID(devRaw % NumGPUs)
		off := uint64(offRaw) % HBMBytesPerGPU
		pa := MakePA(dev, off)
		d, o := pa.SplitPA()
		return d == dev && o == off && pa.HomeDevice() == dev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMakePAOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakePA with oversized offset did not panic")
		}
	}()
	MakePA(0, HBMBytesPerGPU)
}

func TestDistinctDevicesDistinctPAs(t *testing.T) {
	seen := map[PA]bool{}
	for d := DeviceID(0); d < NumGPUs; d++ {
		pa := MakePA(d, 0x1234)
		if seen[pa] {
			t.Fatalf("PA collision for %v", d)
		}
		seen[pa] = true
	}
}

func TestLineAddr(t *testing.T) {
	pa := PA(0x1234)
	if got := pa.LineAddr(); got != 0x1200 {
		t.Errorf("PA LineAddr = %#x", uint64(got))
	}
	va := VA(0x12ff)
	if got := va.LineAddr(); got != 0x1280 {
		t.Errorf("VA LineAddr = %#x", uint64(got))
	}
}

func TestPageArithmetic(t *testing.T) {
	va := VA(3*PageSize + 100)
	if va.PageNumber() != 3 || va.PageOffset() != 100 {
		t.Errorf("page number/offset = %d/%d", va.PageNumber(), va.PageOffset())
	}
	pa := MakePA(1, 2*PageSize)
	if pa.FrameNumber() != uint64(pa)/PageSize {
		t.Error("FrameNumber inconsistent")
	}
}

func TestGeometryConstantsConsistent(t *testing.T) {
	if L2Size != 4<<20 {
		t.Errorf("L2Size = %d, want 4MB (Table I)", L2Size)
	}
	if LinesPerPage != 512 {
		t.Errorf("LinesPerPage = %d", LinesPerPage)
	}
	if NomLocalHit != 268 || NomLocalMiss != 440 || NomRemoteHit != 630 || NomRemoteMiss != 950 {
		t.Errorf("nominal latencies = %d/%d/%d/%d, want 268/440/630/950 (Fig. 4, Fig. 10)",
			NomLocalHit, NomLocalMiss, NomRemoteHit, NomRemoteMiss)
	}
}

func TestStringers(t *testing.T) {
	if DeviceID(3).String() != "GPU3" {
		t.Error("DeviceID stringer")
	}
	if Cycles(42).String() != "42cy" {
		t.Error("Cycles stringer")
	}
}

func TestDeviceValid(t *testing.T) {
	// Valid bounds the PA encoding (MaxGPUs), not any one box: device
	// 8 is invalid on the 8-GPU DGX-1 but real on a 16-GPU DGX-2, so
	// per-box existence is checked against the machine's profile.
	if !DeviceID(0).Valid() || !DeviceID(7).Valid() || !DeviceID(15).Valid() {
		t.Error("valid devices rejected")
	}
	if DeviceID(-1).Valid() || DeviceID(MaxGPUs).Valid() {
		t.Error("invalid devices accepted")
	}
}
