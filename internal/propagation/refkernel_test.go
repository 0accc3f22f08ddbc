package propagation

import (
	"math"
	"math/rand"
	"testing"
)

// refExpFromHash is expFromHash as it stood before the wedge squeeze:
// every wedge test evaluates math.Exp. It is the reference the squeezed
// function must match bit for bit on every hash. onWedge, when non-nil,
// sees each wedge test the draw makes.
func refExpFromHash(h uint64, onWedge func(i, j uint32, y float64)) float64 {
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
			return zigTailX - math.Log(u)
		}
		y := zigF[i] + u*(zigF[i-1]-zigF[i])
		if onWedge != nil {
			onWedge(i, j, y)
		}
		if y < math.Exp(-x) {
			return x
		}
		h = remix(h)
	}
}

// slowPath reports whether the draw for h fails the open-coded ziggurat
// accept test and falls through to expFromHash's tail/wedge handling.
func slowPath(h uint64) bool {
	j := uint32(h)
	return j >= zigK[j&0xff] || j == 0
}

// TestExpFromHashMatchesReference walks a hash stream until 10 M draws
// have taken the slow path (tail, wedge, j == 0 re-roll) and requires
// the squeezed expFromHash to return the reference's exact bits on each,
// then on hand-built hashes at every layer's wedge corners. It also
// counts how many wedge tests the squeeze leaves to math.Exp: the point
// of the squeeze is that almost none do.
func TestExpFromHashMatchesReference(t *testing.T) {
	want := 10_000_000
	if testing.Short() {
		want = 1_000_000
	}
	var wedges, undecided int
	onWedge := func(i, j uint32, y float64) {
		wedges++
		if _, decided := wedgeSqueeze(i, j, y); !decided {
			undecided++
		}
	}
	check := func(h uint64) {
		got, ref := expFromHash(h), refExpFromHash(h, onWedge)
		if math.Float64bits(got) != math.Float64bits(ref) || !(got > 0) {
			t.Fatalf("hash %#016x: squeezed draw %v (%#016x), reference %v (%#016x)",
				h, got, math.Float64bits(got), ref, math.Float64bits(ref))
		}
	}
	slow, n := 0, uint64(0)
	for ; slow < want; n++ {
		h := fadeRound(n*0x9e3779b97f4a7c15+1, 0xabcdef)
		if slowPath(h) {
			slow++
			check(h)
		}
	}
	t.Logf("%d hashes: %d slow-path draws, %d wedge tests, %d left to math.Exp", n, slow, wedges, undecided)
	if frac := float64(undecided) / float64(wedges); wedges < want/2 || frac >= 0.05 {
		t.Errorf("%d of %d wedge tests (%.4f) reached math.Exp, want < 0.05 of at least %d", undecided, wedges, frac, want/2)
	}

	// Wedge corners: the lowest and highest j of every layer's wedge (low
	// byte = layer), under a few high words so the uniform varies.
	rng := rand.New(rand.NewSource(1))
	for i := uint32(0); i < 256; i++ {
		first := zigK[i]&^0xff | i
		if first < zigK[i] {
			first += 0x100
		}
		for _, j := range []uint32{first, first + 0x100, 0xffffff00 | i, 0xfffffe00 | i} {
			for rep := 0; rep < 64; rep++ {
				check(rng.Uint64()<<32 | uint64(j))
			}
		}
	}
	check(0) // j == 0 re-rolls
}

// FuzzExpFromHash: on any hash the squeezed draw equals the reference
// draw bit for bit and is strictly positive.
func FuzzExpFromHash(f *testing.F) {
	for _, h := range []uint64{0, 1, 0xff, 0xffffffff, 0x1234567800000100, math.MaxUint64} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h uint64) {
		got, ref := expFromHash(h), refExpFromHash(h, nil)
		if math.Float64bits(got) != math.Float64bits(ref) || !(got > 0) {
			t.Fatalf("hash %#016x: squeezed draw %v, reference %v", h, got, ref)
		}
	})
}

// scalarAddSum is the loop AddSum and SumRows replace: one Gain call per
// transmitter, added onto acc in list order.
func scalarAddSum(r FadeRow, acc float64, cells []int32, ue int, rx []float64, skip int32) float64 {
	for _, c := range cells {
		if c != skip {
			acc += rx[c] * r.Gain(LinkID(int(c), ue))
		}
	}
	return acc
}

// transmitterCase is one randomized transmitter-list input: n distinct
// cells out of 2000, the receiver's rx powers for every cell, a starting
// sum of the order of the terms, and the four skip values the kernels
// must honor — absent, first, middle and last.
type transmitterCase struct {
	cells []int32
	rx    []float64
	ue    int
	acc   float64
	skips []int32
}

func newTransmitterCase(rng *rand.Rand, n int) transmitterCase {
	const nCells = 2000
	tc := transmitterCase{rx: make([]float64, nCells), ue: rng.Intn(100_000), acc: math.Exp(rng.NormFloat64()*4 - 20)}
	for c := range tc.rx {
		tc.rx[c] = math.Exp(rng.NormFloat64()*4 - 20)
	}
	for _, c := range rng.Perm(nCells)[:n] {
		tc.cells = append(tc.cells, int32(c))
	}
	tc.skips = []int32{-1}
	if n > 0 {
		tc.skips = append(tc.skips, tc.cells[0], tc.cells[n/2], tc.cells[n-1])
	}
	return tc
}

// slowDraws counts the terms of one row whose draw fails the open-coded
// accept test and so goes through expFromHash.
func slowDraws(r FadeRow, tc transmitterCase) int {
	if r.flat {
		return 0
	}
	slow := 0
	for _, c := range tc.cells {
		if slowPath(fadeRound(r.base, LinkID(int(c), tc.ue))) {
			slow++
		}
	}
	return slow
}

// rowFadings are the two fading processes every row kernel test runs
// on: fading on, and off (nil).
func rowFadings() []*Fading {
	var nilF *Fading
	return []*Fading{NewFading(9), nilF}
}

// TestAddSumMatchesScalar: the open-coded transmitter-list sum equals
// the scalar Gain loop bit for bit for list lengths 0..40, every skip
// position, a non-zero starting sum and flat rows, and the inputs reach
// expFromHash's slow path.
func TestAddSumMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	slow := 0
	for rep := 0; rep < 25; rep++ {
		for n := 0; n <= 40; n++ {
			tc := newTransmitterCase(rng, n)
			sc, tMS := rng.Intn(13), int64(rng.Intn(1_000_000))
			for _, f := range rowFadings() {
				row := f.Row(sc, tMS)
				slow += slowDraws(row, tc)
				for _, skip := range tc.skips {
					want := scalarAddSum(row, tc.acc, tc.cells, tc.ue, tc.rx, skip)
					if got := row.AddSum(tc.acc, tc.cells, tc.ue, tc.rx, skip); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("list of %d, skip %d, fading %+v: AddSum %v, scalar %v", n, skip, f, got, want)
					}
				}
			}
		}
	}
	if slow < 100 {
		t.Errorf("only %d draws took expFromHash's slow path, want at least 100", slow)
	}
}

// TestSumRowsMatchesScalar: the ten-row walk leaves each accumulator
// exactly where the scalar Gain loop over that row would, on the inputs
// TestAddSumMatchesScalar uses, with fading on, flat, a row set that
// mixes the two, and 130 rows (past two 64-row chunks).
func TestSumRowsMatchesScalar(t *testing.T) {
	const blocks = 10
	rng := rand.New(rand.NewSource(12))
	slow := 0
	for rep := 0; rep < 25; rep++ {
		for n := 0; n <= 40; n++ {
			tc := newTransmitterCase(rng, n)
			sc, epochMS := rng.Intn(13), int64(rng.Intn(1000))*1000
			var rowSets [][]FadeRow
			for _, f := range rowFadings() {
				rows := make([]FadeRow, blocks)
				for b := range rows {
					rows[b] = f.Row(sc, epochMS+int64(b)*100)
				}
				rowSets = append(rowSets, rows)
			}
			mixed := append([]FadeRow(nil), rowSets[0]...)
			mixed[rep%blocks] = rowSets[1][0]
			long := make([]FadeRow, 130)
			for b := range long {
				long[b] = NewFading(9).Row(sc, epochMS+int64(b)*100)
			}
			rowSets = append(rowSets, mixed, long)
			for _, rows := range rowSets {
				for _, r := range rows {
					slow += slowDraws(r, tc)
				}
				for _, skip := range tc.skips {
					acc := make([]float64, len(rows))
					for b := range acc {
						acc[b] = tc.acc * float64(b+1)
					}
					SumRows(rows, tc.cells, tc.ue, tc.rx, skip, acc)
					for b, r := range rows {
						want := scalarAddSum(r, tc.acc*float64(b+1), tc.cells, tc.ue, tc.rx, skip)
						if math.Float64bits(acc[b]) != math.Float64bits(want) {
							t.Fatalf("list of %d, skip %d, row %d %+v: SumRows %v, scalar %v", n, skip, b, r, acc[b], want)
						}
					}
				}
			}
		}
	}
	if slow < 1000 {
		t.Errorf("only %d draws took expFromHash's slow path, want at least 1000", slow)
	}
}

// TestWeightedSumMatchesScalar: the fused row kernel returns exactly the
// serial sum of float64(rx[i]) * GainLinear(LinkID(ap[i], ue), k, t) and
// exactly the serving term, for every row length 0..32 and every serving
// index (plus the out-of-row ones), with fading on, disabled and nil.
func TestWeightedSumMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fades := rowFadings()
	for rep := 0; rep < 40; rep++ {
		for n := 0; n <= 32; n++ {
			aps := make([]int32, n)
			rx := make([]float32, n)
			for i := range aps {
				aps[i] = int32(rng.Intn(2000))
				rx[i] = float32(math.Exp(rng.NormFloat64()*4 - 20))
			}
			ue := 2000 + rng.Intn(100_000)
			sc, tMS := rng.Intn(13), int64(rng.Intn(1_000_000))
			for _, f := range fades {
				var total float64
				terms := make([]float64, n)
				for i := range aps {
					terms[i] = float64(rx[i]) * f.GainLinear(LinkID(int(aps[i]), ue), sc, tMS)
					total += terms[i]
				}
				row := f.Row(sc, tMS)
				for serving := -1; serving <= n; serving++ {
					var sig float64
					if serving >= 0 && serving < n {
						sig = terms[serving]
					}
					gotTotal, gotSig := row.WeightedSum(aps, ue, rx, serving)
					if math.Float64bits(gotTotal) != math.Float64bits(total) || math.Float64bits(gotSig) != math.Float64bits(sig) {
						t.Fatalf("row of %d, serving %d, fading %+v: fused (%v, %v), scalar (%v, %v)",
							n, serving, f, gotTotal, gotSig, total, sig)
					}
				}
			}
		}
	}
}
