package propagation

import (
	"math"
	"math/bits"
)

// Fading generates deterministic block fast fading per (link, subchannel,
// time block). Fades are exponential in power (Rayleigh envelope),
// independent across subchannels (frequency-selective) and across
// coherence blocks (time-selective).
//
// # Fading kernel v2
//
// Draws come from a ziggurat Exponential(1) sampler fed by the same
// SplitMix64-style hash stream as kernel v1, not from -log(u): 97.8% of
// draws are one table compare plus one multiply; the other 2.2% take
// expFromHash's slow path, where the log runs only on the tail and the
// exp only on the sliver of wedge tests the tangent/chord squeeze cannot
// decide. The hash absorbs (subchannel, block) first and the link ID
// last, so row callers pay the (subchannel, block) prefix once per row
// and one mixing round per link (FadeRow.WeightedSum, FadeRow.AddSum,
// SumRows, AppendGainsLinear). The distribution is unchanged — mean-1
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
	// Ziggurat accept test open-coded, as in WeightedSum: 97.8% of draws
	// return here without a second call.
	h := fadeRound(r.base, linkID)
	j := uint32(h)
	zi := j & 0xff
	if j < zigK[zi] && j != 0 {
		return float64(j) * zigW[zi]
	}
	return expFromHash(h)
}

// WeightedSum is the fused row kernel: for one receiver ue and the
// transmitters aps[i] with mean rx powers rx[i], it draws the fade of
// every link LinkID(aps[i], ue) and returns
//
//	total = Σ float64(rx[i]) * Gain(LinkID(aps[i], ue))
//
// accumulated from 0 in index order, together with the serving index's
// term sig (0 when serving is outside the row). Link IDs are formed in
// registers and gains never touch memory; every term is bit-identical to
// the scalar expression above. aps and rx must have equal length.
func (r FadeRow) WeightedSum(aps []int32, ue int, rx []float32, serving int) (total, sig float64) {
	rx = rx[:len(aps)]
	if r.flat {
		for _, p := range rx {
			total += float64(p)
		}
		if uint(serving) < uint(len(rx)) {
			sig = float64(rx[serving])
		}
		return total, sig
	}
	base := r.base ^ uint64(uint32(ue)) // LinkID's low word, folded once
	for i := 0; i < len(aps); i++ {
		var h uint64
		// The inner loop is the 97.8% fast path — one mixing round, the
		// ziggurat accept test open-coded — and holds no call the compiler
		// does not inline, so the running sum stays in a register; a
		// rejection leaves it for expFromHash, which redoes the (cheap)
		// accept test and therefore returns bit-identical values, and
		// re-enters.
		for ; i < len(aps); i++ {
			h = fadeRound(base, uint64(uint32(aps[i]))<<32)
			j := uint32(h)
			zi := j & 0xff
			if j >= zigK[zi] || j == 0 {
				break
			}
			total += float64(rx[i]) * (float64(j) * zigW[zi])
		}
		if i < len(aps) {
			total += float64(rx[i]) * expFromHash(h)
		}
	}
	if uint(serving) < uint(len(aps)) {
		sig = float64(rx[serving]) * r.Gain(LinkID(int(aps[serving]), ue))
	}
	return total, sig
}

// AddSum is the transmitter-list form of WeightedSum: for one receiver
// ue, a list of transmitting cells and the receiver's mean rx powers
// indexed by cell, it returns
//
//	acc + Σ rx[c] * Gain(LinkID(c, ue))   over c in cells, c != skip
//
// added one term at a time in list order onto acc, so every partial sum
// is bit-identical to the scalar loop `acc += rx[c] * r.Gain(...)`. The
// loop shape is WeightedSum's: link IDs in registers, the ziggurat
// accept test open-coded, rejections through expFromHash.
func (r FadeRow) AddSum(acc float64, cells []int32, ue int, rx []float64, skip int32) float64 {
	if r.flat {
		for _, c := range cells {
			if c != skip {
				acc += rx[c] // rx[c] * 1 == rx[c] exactly
			}
		}
		return acc
	}
	base := r.base ^ uint64(uint32(ue))
	for i := 0; i < len(cells); i++ {
		var h uint64
		var p float64
		for ; i < len(cells); i++ {
			c := cells[i]
			if c == skip {
				continue
			}
			p = rx[c]
			h = fadeRound(base, uint64(uint32(c))<<32)
			j := uint32(h)
			zi := j & 0xff
			if j >= zigK[zi] || j == 0 {
				break
			}
			acc += p * (float64(j) * zigW[zi])
		}
		if i < len(cells) {
			acc += p * expFromHash(h)
		}
	}
	return acc
}

// SumRows is AddSum over several rows at once — in netsim, the coherence
// blocks of one epoch for one (receiver, subchannel): it walks cells
// once, loads rx[c] and forms the link ID once per cell, and adds that
// cell's term onto acc[b] for every row b. Each acc[b] ends exactly
// where rows[b].AddSum(acc[b], cells, ue, rx, skip) would. acc must be
// at least as long as rows.
//
// The row loop (addTerms) holds no call: it leaves the cell's rejected
// draws to expFromHash, which runs once the row loop is done and before
// the next cell, so each accumulator still adds its terms in list
// order. Rejections are kept as bits of a uint64, so the walk takes 64
// rows at a time.
func SumRows(rows []FadeRow, cells []int32, ue int, rx []float64, skip int32, acc []float64) {
	if len(rows) > 64 {
		SumRows(rows[64:], cells, ue, rx, skip, acc[64:])
		rows = rows[:64]
	}
	acc = acc[:len(rows)]
	for _, c := range cells {
		if c == skip {
			continue
		}
		p := rx[c]
		link := LinkID(int(c), ue)
		for slow := addTerms(rows, acc, p, link); slow != 0; slow &= slow - 1 {
			b := bits.TrailingZeros64(slow)
			acc[b] += p * expFromHash(fadeRound(rows[b].base, link))
		}
	}
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
		// Same loop body as WeightedSum: fadeRound inlined, accept test
		// open-coded, the 2.2% of rejections redone by expFromHash.
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

// addTerms adds p times the link's fade in each of at most 64 rows onto
// acc[b], except where the draw fails the ziggurat accept test: those
// rows come back as set bits in slow, their terms not yet added. It is
// a function of its own so that the loop keeps its handful of values in
// registers (folded into sumRows64's cell loop, which holds a call, it
// ran about 10% slower).
func addTerms(rows []FadeRow, acc []float64, p float64, link uint64) (slow uint64) {
	acc = acc[:len(rows)]
	for b, r := range rows {
		if r.flat {
			acc[b] += p
			continue
		}
		h := fadeRound(r.base, link)
		j := uint32(h)
		zi := j & 0xff
		if j >= zigK[zi] || j == 0 {
			slow |= 1 << b
			continue
		}
		acc[b] += p * (float64(j) * zigW[zi])
	}
	return slow
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
// 32-bit uniform onto the layer's x extent [0, x_i), zigF[i] = exp(-x_i)
// for the wedge test, and zigC[i] = (f(x_{i-1}) - f(x_i)) / (x_i -
// x_{i-1}) is the slope of the chord across layer i's wedge (x_0 = 0).
// zigTailX is where the tail layer starts.
const zigTailX = 7.69711747013104972

var (
	zigK [256]uint32
	zigW [256]float64
	zigF [256]float64
	zigC [256]float64
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
	xPrev := 0.0
	for i := 1; i <= 255; i++ {
		x := zigW[i] * m // exact: zigW[i] is x_i scaled by a power of two
		zigC[i] = (zigF[i-1] - zigF[i]) / (x - xPrev)
		xPrev = x
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
		y := zigF[i] + u*(zigF[i-1]-zigF[i])
		accept, decided := wedgeSqueeze(i, j, y)
		if !decided {
			accept = y < math.Exp(-x)
		}
		if accept {
			return x
		}
		h = remix(h)
	}
}

// squeezeGuard is the relative band around the tangent and the chord
// inside which wedgeSqueeze leaves the verdict to math.Exp. Every
// quantity compared is a handful of roundings (~1e-15 relative) away
// from its real value and math.Exp is good to an ulp, so a band seven
// orders wider cannot let the squeeze and the exact comparison disagree.
const squeezeGuard = 1e-9

// wedgeSqueeze decides layer i's wedge test "y < exp(-x)" at x = j *
// zigW[i] without evaluating the exponential when it can. exp(-x) is
// convex, so on the wedge [x_{i-1}, x_i] it lies above its tangent at
// x_i and below the chord through both corners: a y under the tangent
// accepts, a y over the chord rejects, and only the sliver between them
// (about 1.4% of wedge tests) is left undecided. Left of x_{i-1} — zigK
// is floored, so j can undershoot by one — the extended chord exceeds
// f(x_{i-1}) >= y and cannot reject wrongly; the tangent bound holds
// everywhere.
func wedgeSqueeze(i, j uint32, y float64) (accept, decided bool) {
	dx := float64(1<<32-uint64(j)) * zigW[i] // x_i - x
	if y < zigF[i]*(1+dx)*(1-squeezeGuard) {
		return true, true
	}
	if y > (zigF[i]+zigC[i]*dx)*(1+squeezeGuard) {
		return false, true
	}
	return false, false
}
