package propagation

import "math"

// Fading generates deterministic block fast fading per (link, subchannel,
// time block). Fades are exponential in power (Rayleigh envelope),
// independent across subchannels (frequency-selective) and across
// coherence blocks (time-selective).
//
// # Fading kernel v2
//
// Draws come from a ziggurat Exponential(1) sampler fed by the same
// SplitMix64-style hash stream as kernel v1, not from -log(u): about 99%
// of draws are one table compare plus one multiply, with the log only on
// the tail and the exp only on wedge rejection. The hash absorbs
// (subchannel, block) first and the link ID last, so batch callers pay
// the (subchannel, block) prefix once per row and one mixing round per
// link (AppendGainsLinear). The distribution is unchanged — mean-1
// exponential power, Rayleigh envelope — but individual per-link draws
// re-rolled relative to kernel v1, following the ShadowingDB precedent:
// goldens and bench artifacts regenerate, cross-mode and cross-shard
// equivalence contracts are unaffected (every path draws through this
// one sampler). TestFadingGoldenVector pins the v2 stream.
type Fading struct {
	// Seed decorrelates trials.
	Seed int64
	// BlockMS is the coherence time in milliseconds (default 100 ms —
	// nomadic outdoor clients).
	BlockMS int64
	// Disabled turns fading off (0 dB always).
	Disabled bool
}

// NewFading returns a fading process with 100 ms coherence blocks.
func NewFading(seed int64) *Fading { return &Fading{Seed: seed, BlockMS: 100} }

// GainDB returns the fading gain in dB for the directed link linkID on
// the given subchannel during the coherence block containing tMS
// (milliseconds of simulation time). Mean power gain is 1 (0 dB average
// in the linear domain). It delegates to GainLinear, so the dB and
// linear paths are bit-for-bit coupled through the one v2 sampler.
func (f *Fading) GainDB(linkID uint64, subchannel int, tMS int64) float64 {
	if f == nil || f.Disabled {
		return 0
	}
	return 10 * math.Log10(f.GainLinear(linkID, subchannel, tMS))
}

// GainLinear returns the same fade as GainDB as a linear power gain
// (GainDB == 10*log10(GainLinear), bit-for-bit). Hot paths that work in
// milliwatts use it to skip the log10/pow round trip per interferer.
// The gain is strictly positive.
func (f *Fading) GainLinear(linkID uint64, subchannel int, tMS int64) float64 {
	return f.Row(subchannel, tMS).Gain(linkID)
}

// FadeRow is the draw stream of one (subchannel, coherence block) row
// with the (seed, subchannel, block) hash prefix already folded: callers
// that evaluate many links of one row take it once and pay one mixing
// round plus the ziggurat probe per link. Every gain — scalar, row or
// batch — comes out of this one sampler.
type FadeRow struct {
	base uint64
	flat bool // fading nil or disabled: every gain is 1
}

// Row returns the fade row for the subchannel during the coherence block
// containing tMS.
func (f *Fading) Row(subchannel int, tMS int64) FadeRow {
	if f == nil || f.Disabled {
		return FadeRow{flat: true}
	}
	return FadeRow{base: f.fadeBase(subchannel, tMS/f.BlockMS)}
}

// Gain returns the row's linear power gain for the directed link.
func (r FadeRow) Gain(linkID uint64) float64 {
	if r.flat {
		return 1
	}
	// Ziggurat accept test open-coded, as in AppendGainsLinear: ~99% of
	// draws return here without a second call.
	h := fadeRound(r.base, linkID)
	j := uint32(h)
	zi := j & 0xff
	if j < zigK[zi] && j != 0 {
		return float64(j) * zigW[zi]
	}
	return expFromHash(h)
}

// AppendGainsLinear appends one linear fading gain per link in links,
// all on the same subchannel and coherence block, and returns the
// extended slice. Each appended value is bit-identical to
// GainLinear(links[i], subchannel, tMS); the batch form hoists the
// (seed, subchannel, block) hash prefix out of the loop so the per-link
// cost is one mixing round plus the ziggurat table probe. With fading
// nil or disabled every gain is 1.
func (f *Fading) AppendGainsLinear(dst []float64, links []uint64, subchannel int, tMS int64) []float64 {
	row := f.Row(subchannel, tMS)
	if row.flat {
		for range links {
			dst = append(dst, 1)
		}
		return dst
	}
	base := row.base
	n := len(dst)
	if cap(dst)-n < len(links) {
		grown := make([]float64, n, n+len(links))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+len(links)]
	out := dst[n:][:len(links)] // len(out) == len(links): elides the store bounds check
	for i, l := range links {
		// fadeRound inlined, with the ziggurat accept test open-coded so
		// the ~99% fast path never leaves the loop body; rejections fall
		// back to expFromHash, which redoes the (cheap) accept test and
		// therefore returns bit-identical values.
		h := base ^ l
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		j := uint32(h)
		zi := j & 0xff
		if j < zigK[zi] && j != 0 {
			out[i] = float64(j) * zigW[zi]
		} else {
			out[i] = expFromHash(h)
		}
	}
	return dst
}

// fadeBase is the hash state after absorbing the seed, the subchannel
// and the coherence block — the draw-stream prefix shared by every link
// in one batch row.
func (f *Fading) fadeBase(subchannel int, block int64) uint64 {
	h := uint64(f.Seed) ^ 0x9e3779b97f4a7c15
	h = fadeRound(h, uint64(subchannel)+0x5bd1e995)
	return fadeRound(h, uint64(block))
}

// fadeRound absorbs one value into the hash state: the same xor-
// multiply-shift round hash64 applies per element.
func fadeRound(h, v uint64) uint64 {
	h ^= v
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// remix advances the deterministic draw stream when the ziggurat needs
// more bits (tail and wedge rejections): a SplitMix64 step.
func remix(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Ziggurat tables for the Exponential(1) density f(x) = exp(-x), 256
// layers, built once at init by the Marsaglia–Tsang recursion. zigK[i]
// is the integer acceptance threshold for layer i, zigW[i] scales a
// 32-bit uniform onto the layer's x extent, zigF[i] = exp(-x_i) for the
// wedge test. zigTailX is where the tail layer starts.
const zigTailX = 7.69711747013104972

var (
	zigK [256]uint32
	zigW [256]float64
	zigF [256]float64
)

func init() {
	const m = 1 << 32
	de, te := zigTailX, zigTailX
	const ve = 3.949659822581572e-3 // area of each layer (and the tail)
	q := ve / math.Exp(-de)
	zigK[0] = uint32(de / q * m)
	zigK[1] = 0
	zigW[0] = q / m
	zigW[255] = de / m
	zigF[0] = 1
	zigF[255] = math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(ve/de + math.Exp(-de))
		zigK[i+1] = uint32(de / te * m)
		te = de
		zigF[i] = math.Exp(-de)
		zigW[i] = de / m
	}
}

// expFromHash maps a 64-bit hash to an Exponential(1) deviate through
// the ziggurat. The value is a pure function of h — rejections re-mix h
// deterministically — so a draw is reproducible from its hash alone.
// The result is strictly positive: the j == 0 pattern (which would land
// exactly on 0) re-rolls, a 2^-32 per-draw bias that keeps log10 of a
// gain finite everywhere.
func expFromHash(h uint64) float64 {
	for {
		j := uint32(h)
		i := j & 0xff
		x := float64(j) * zigW[i]
		if j < zigK[i] && j != 0 {
			return x
		}
		h = remix(h)
		if j == 0 {
			continue
		}
		u := (float64(h>>11) + 1) / (1 << 53) // (0,1]
		if i == 0 {
			// Tail: x beyond zigTailX is itself exponential.
			return zigTailX - math.Log(u)
		}
		if zigF[i]+u*(zigF[i-1]-zigF[i]) < math.Exp(-x) {
			return x
		}
		h = remix(h)
	}
}
