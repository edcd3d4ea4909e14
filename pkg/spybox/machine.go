// The machine-level scripting toolkit: re-exports of the simulator
// and attack-suite types external users drive directly when the
// experiment layer is too coarse — build a machine, characterize
// timing, discover eviction sets, align channels across processes,
// transmit covertly, and spy on victims. The examples/ directory
// walks these end to end; the type aliases keep the full method sets
// usable without importing internal packages (which module boundaries
// forbid).
package spybox

import (
	"spybox/internal/arch"
	"spybox/internal/classify"
	"spybox/internal/core"
	"spybox/internal/memgram"
	"spybox/internal/sim"
	"spybox/internal/victim"
)

// --- the simulated box ---

// Machine is the simulated multi-GPU box: a conservative
// discrete-event engine over GPUs, L2 caches, HBM, and the NVLink
// fabric. Identical seeds give identical cycle-for-cycle runs.
type Machine = sim.Machine

// MachineOptions parameterize machine construction: the seed, an
// optional architecture profile (nil means p100-dgx1) and L2 geometry
// override, the noise switch, and MIG partitions. The NVLink topology
// and the contention noise both come from the profile; to vary the
// noise, pass a profile copy with its Lat.ContentionSigmaPer changed.
type MachineOptions = sim.Options

// NewMachine builds a simulated box. A nil Profile means the paper's
// p100-dgx1.
func NewMachine(opts MachineOptions) (*Machine, error) { return sim.NewMachine(opts) }

// MustNewMachine is NewMachine for known-good options; it panics on
// error.
func MustNewMachine(opts MachineOptions) *Machine { return sim.MustNewMachine(opts) }

// DeviceID names one GPU of the box.
type DeviceID = arch.DeviceID

// Profile bundles one GPU generation's box: GPU count, NVLink
// topology, L2 geometry, and the calibrated latency model.
type Profile = arch.Profile

// Profiles lists every named architecture profile.
func Profiles() []Profile { return arch.Profiles() }

// ProfileNames lists the -arch spellings of every profile.
func ProfileNames() []string { return arch.ProfileNames() }

// LookupProfile resolves a profile by name.
func LookupProfile(name string) (Profile, error) { return arch.LookupProfile(name) }

// --- timing characterization and eviction sets (Sec. III) ---

// TimingProfile is a Fig. 4 characterization: per-class latency
// samples, the histogram, and the derived thresholds.
type TimingProfile = core.TimingProfile

// Thresholds separate the four access-time classes.
type Thresholds = core.Thresholds

// CharacterizeTiming times the four access classes (local/remote ×
// hit/miss) between two GPUs and derives classification thresholds.
func CharacterizeTiming(m *Machine, devLocal, devRemote DeviceID, accesses int, seed uint64) (*TimingProfile, error) {
	return core.CharacterizeTiming(m, devLocal, devRemote, accesses, seed)
}

// Attacker is one attacking process: a buffer on the target GPU plus
// the discovery, validation, geometry-inference, monitoring, and
// probing machinery over it.
type Attacker = core.Attacker

// EvictionSet is one discovered set of cache-colliding lines.
type EvictionSet = core.EvictionSet

// Geometry is a reverse-engineered L2 architecture (Table I).
type Geometry = core.Geometry

// NewAttacker builds an attacker on dev whose buffer lives on the
// target GPU.
func NewAttacker(m *Machine, dev, target DeviceID, pages int, thr Thresholds, seed uint64) (*Attacker, error) {
	return core.NewAttacker(m, dev, target, pages, thr, seed)
}

// --- the covert channel (Sec. IV) ---

// AlignedPair couples a trojan eviction set with the spy set that
// collides with it in the target L2.
type AlignedPair = core.AlignedPair

// CovertConfig paces the channel's bit protocol.
type CovertConfig = core.CovertConfig

// Channel is an aligned trojan->spy covert channel.
type Channel = core.Channel

// AlignChannels aligns numSets trojan/spy set pairs across processes
// (Fig. 7's procedure, repeated).
func AlignChannels(trojan, spy *Attacker, trojanSets, spyCandidates []EvictionSet, numSets int) ([]AlignedPair, error) {
	return core.AlignChannels(trojan, spy, trojanSets, spyCandidates, numSets)
}

// NewChannel builds a covert channel over aligned set pairs.
func NewChannel(trojan, spy *Attacker, pairs []AlignedPair, cfg CovertConfig) (*Channel, error) {
	return core.NewChannel(trojan, spy, pairs, cfg)
}

// DefaultCovertConfig returns the paper-calibrated channel pacing.
func DefaultCovertConfig() CovertConfig { return core.DefaultCovertConfig() }

// BitsToBytes packs received bits into bytes.
func BitsToBytes(bits []byte) []byte { return core.BitsToBytes(bits) }

// --- side-channel monitoring and victims (Sec. V) ---

// MonitorOptions parameterize a Prime+Probe monitoring run.
type MonitorOptions = core.MonitorOptions

// MonitorResult holds the per-epoch, per-set miss matrix.
type MonitorResult = core.MonitorResult

// VictimApp is one of the six victim applications of Fig. 11.
type VictimApp = victim.App

// VictimConfig sizes a victim application.
type VictimConfig = victim.Config

// VictimAppNames lists the six victim applications, in Fig. 11 order.
func VictimAppNames() []string { return append([]string(nil), victim.AppNames...) }

// NewVictimApp builds a victim application by name on dev.
func NewVictimApp(name string, m *Machine, dev DeviceID, seed uint64, cfg VictimConfig) (*VictimApp, error) {
	return victim.NewApp(name, m, dev, seed, cfg)
}

// MLPVictim is a small MLP being trained on a GPU — the
// model-extraction target of Sec. V-B. Launch issues its training
// traffic on the device, which is all a spy observes; Train runs the
// host-side SGD and sets FinalLoss, so callers that read FinalLoss or
// the trained Net call Train.
type MLPVictim = victim.MLPVictim

// MLPVictimConfig sizes the MLP victim (hidden width, epochs, ...).
type MLPVictimConfig = victim.MLPVictimConfig

// NewMLPVictim builds an MLP victim on dev.
func NewMLPVictim(m *Machine, dev DeviceID, seed uint64, cfg MLPVictimConfig) (*MLPVictim, error) {
	return victim.NewMLPVictim(m, dev, seed, cfg)
}

// Memorygram is the per-set, per-epoch miss image of a monitored
// victim (Fig. 11/14/15).
type Memorygram = memgram.Gram

// NewMemorygram builds a memorygram from a monitor's miss matrix.
func NewMemorygram(miss [][]int, label string) (*Memorygram, error) { return memgram.New(miss, label) }

// ClassifySample is one (features, class) pair for fingerprinting.
type ClassifySample = classify.Sample

// KNN is a k-nearest-neighbour fingerprint classifier.
type KNN = classify.KNN

// NewKNN builds a k-NN classifier over training samples.
func NewKNN(k int, train []ClassifySample) (*KNN, error) { return classify.NewKNN(k, train) }
