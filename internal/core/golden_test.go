package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/onesided"
)

// switchRing builds the "ring" over 2k posts, f_i = i and s_i = k+i:
// applicants a_i = [f_i, s_i] (ids 0..k-1) and b_i = [f_{(i+1) mod k}, s_i]
// (ids k..2k-1). G′ is one 4k-cycle and G_M one 2k-cycle, so the instance has
// exactly two popular matchings. With chain set, b_{k-1} is left out (the
// "chain"): G′ becomes a path and G_M one path of 2k-1 edges into its only
// sink, the deepest switching graph 2k posts allow.
func switchRing(t testing.TB, k int, chain bool) *onesided.Instance {
	t.Helper()
	lists := make([][]int32, 0, 2*k)
	for i := 0; i < k; i++ {
		lists = append(lists, []int32{int32(i), int32(k + i)})
	}
	for i := 0; i < k; i++ {
		if chain && i == k-1 {
			break
		}
		lists = append(lists, []int32{int32((i + 1) % k), int32(k + i)})
	}
	ins, err := onesided.NewStrict(2*k, lists)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// goldenWeights is the corpus weight function of the differential tests:
// small signed weights, so maximum and minimum weight pick different
// switches.
func goldenWeights(a, p int32) int64 { return int64((int(p)+3*int(a))%5) - 1 }

// postOfDigest is the SHA-256 of a result's PostOf vector (little-endian
// int32s), or "none" when no popular matching exists.
func postOfDigest(out Outcome) string {
	if !out.Exists {
		return "none"
	}
	h := sha256.New()
	var b [4]byte
	for _, p := range out.Matching.PostOf {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests pins the §IV-E optimizer's output: the PostOf digests below
// were computed before the switching phase moved onto the cut lifting
// ladder, and every later change to the switching graph analysis must
// reproduce them bit for bit.
var goldenDigests = map[string]string{
	"strict300/maxcard":      "8096add6b56ed29c5e7c95f0b7ef3b587e834e8958089378486a354af1355796",
	"strict300/maxweight":    "129931c09fd33f897203c8bd11da7b698cd474a94f456c86bd8c894118e9c397",
	"strict300/minweight":    "70ed08574b5ac85bcadd96bb03f22fad8795b73503ea64aa5754fe9e5346706f",
	"strict300/rankmaximal":  "f5d090e4f32b9f44104b8d6103a7e2c9ea287ca36042654c739e276f5d8a6993",
	"strict300/fair":         "c3c0801a018ed53007df83946db1451ccadaa11ab87f2c0fc5e44d62cf0beee7",
	"strict700/maxcard":      "dce50d24c78a893a736ee3fb98327ea2ba6b3412b4b7adcd40f54391f4c021b6",
	"strict700/maxweight":    "36a4a8e9a30e7d9c0dd6ed96d453e42528bb7f17afa3db3e087220a3d775636b",
	"strict700/minweight":    "0b8c24ce0dcd3ede526f2a4b504ed666e31aebf4c6ea0dd25e6b212cad80692d",
	"strict700/rankmaximal":  "ef41e98cea2b76d6e294cdd5606d9c22c9ef13354551ba7e0240baa7fb909e3f",
	"strict700/fair":         "ef41e98cea2b76d6e294cdd5606d9c22c9ef13354551ba7e0240baa7fb909e3f",
	"strict1200/maxcard":     "c6e107eacda16dfa55c90163e5c53ade20c93a5d72c28377cca7eac7d53d9b68",
	"strict1200/maxweight":   "3e487792d832fe8ed85a67b17c9106da25336bf4b532eca2b4d55487dba8a44d",
	"strict1200/minweight":   "e85e8dc60c5ad4253967ddb8272a3cf45548b6f52fde07546cf5e4784509cc0b",
	"strict1200/rankmaximal": "cae4b430cf701f730da396e406f4af826fce44f34d9bd93c909fac81b641792b",
	"strict1200/fair":        "7d946eafad249bd34fc382b337430eef51e4743d5ef143c6c62cdca047abc895",
	"strict2000/maxcard":     "507a53decdd6a136c23a5471d4d922309a22e9a472473114ea5b5a869ae1e482",
	"strict2000/maxweight":   "b909b152453c31c7798847b7fb20fd00fde4cc06462d0010c77212209fe089e0",
	"strict2000/minweight":   "fa9686e0730fb85b69d980caa93ddb8433685c8c124b9b9bcdf055fb7627416b",
	"strict2000/rankmaximal": "288668d6eb1b655984f34891311d460a788ef32dcece48eb063ab25de858819b",
	"strict2000/fair":        "f873cc1e1133dab8d2d2363511c65f4316c0e62b7a67218e22b761418285e5ca",
	"strict3500/maxcard":     "f8dcf1e0dd6ed2408b93fdc866c1e112f75dc59c4969dc78c019b5a88f799dc5",
	"strict3500/maxweight":   "188905fe71d7d3a50d60605ca5681cf8e8f52604bf8bfd6a417c7b0736e5f1eb",
	"strict3500/minweight":   "f73392708d1e73e1d5e20d9b9104672c7f1c81ebca4a71c3d24946d5fe1b91b7",
	"strict3500/rankmaximal": "78f51ab3dfab1ea0803e97f2e7cb62ac43afdfbc10f3ac792890dbf62146ea76",
	"strict3500/fair":        "88242a4c8070946fef3dc11668f654bf1d35a25ead7712e573b662eb38525098",
	"strict5000/maxcard":     "a0cf42035e57c98a7f7d58cff7741e161fedc0a103579709eb2f3df8f5d802f0",
	"strict5000/maxweight":   "e4b1171d933df519f813ceccc228950be8a8d6b8bd395cdd21ffe06789e2588c",
	"strict5000/minweight":   "4c8d83ccec60a62fc1d0ce7471b16bd83b5277a2256e16be8ef5ababb32ec3c0",
	"strict5000/rankmaximal": "37276e5b2405e8883cebe680c207b0b57ffd6b0f1cd52226e47173c07bcdb1fb",
	"strict5000/fair":        "87abb29e0bd61211df6b90d50c9e18c53610c8b7821d1c97201c17d4c0197185",
	"ring5000/maxcard":       "9140e019602b8628f6f4a6aac3658bf206e332a92943eb113fb2b465fecc55d6",
	"chain5000/maxcard":      "f257b80a97b9bec7e1d7ff338fb2043a6ce0cd45a703f8631c92bce83fe12461",
	"ring5000/maxweight":     "9140e019602b8628f6f4a6aac3658bf206e332a92943eb113fb2b465fecc55d6",
	"chain5000/maxweight":    "776616450ffbc3081acd686500566806d0dde98f1b5f291b35f7384781a43f5e",
	"ring5000/minweight":     "9140e019602b8628f6f4a6aac3658bf206e332a92943eb113fb2b465fecc55d6",
	"chain5000/minweight":    "e4b91657607976907a10592ea2fbcfd4414e48687fa6dce3e224c40ba288d133",
	"ring600/rankmaximal":    "ead180b9e8d61888c8ef9fb43870b95fa391bb7f716b946b81098425033dda27",
	"chain600/rankmaximal":   "0e11629f58303cd6fd72b3cd458c2a52d2d4c0d0c7c29ccb8d0d8dd549010ac0",
	"ring600/fair":           "ead180b9e8d61888c8ef9fb43870b95fa391bb7f716b946b81098425033dda27",
	"chain600/fair":          "0e11629f58303cd6fd72b3cd458c2a52d2d4c0d0c7c29ccb8d0d8dd549010ac0",
}

// TestOptimalGoldenDigests solves six seeded RandomStrict instances (all
// solvable), the ring and the chain in every weighted mode and compares
// each result with its pinned digest. The rank modes run the ring and the
// chain at k = 600: their positional weights carry n·log₂(n) bits each.
func TestOptimalGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digests solve instances up to n = 10,000")
	}
	type golden struct {
		name string
		ins  *onesided.Instance
	}
	var cases []golden
	for i, n := range []int{300, 700, 1200, 2000, 3500, 5000} {
		rng := rand.New(rand.NewSource(int64(1901 + i)))
		cases = append(cases, golden{fmt.Sprintf("strict%d", n), onesided.RandomStrict(rng, n, n, 1, 4)})
	}
	ring, chain := switchRing(t, 5000, false), switchRing(t, 5000, true)
	smallRing, smallChain := switchRing(t, 600, false), switchRing(t, 600, true)
	modes := []Mode{ModeMaxCard, ModeMaxWeight, ModeMinWeight, ModeRankMaximal, ModeFair}
	for _, c := range cases {
		for _, mode := range modes {
			checkGolden(t, c.name, c.ins, mode)
		}
	}
	for _, mode := range modes {
		r, ch := ring, chain
		if mode == ModeRankMaximal || mode == ModeFair {
			r, ch = smallRing, smallChain
		}
		checkGolden(t, fmt.Sprintf("ring%d", r.NumPosts/2), r, mode)
		checkGolden(t, fmt.Sprintf("chain%d", ch.NumPosts/2), ch, mode)
	}
}

func checkGolden(t *testing.T, name string, ins *onesided.Instance, mode Mode) {
	t.Helper()
	out, err := SolveRequest(ins, Request{Mode: mode, Weights: goldenWeights}, Options{})
	if err != nil {
		t.Fatalf("%s %s: %v", name, mode, err)
	}
	if !out.Exists {
		t.Fatalf("%s %s: golden instances must be solvable", name, mode)
	}
	key := name + "/" + mode.String()
	if got, want := postOfDigest(out), goldenDigests[key]; got != want {
		t.Errorf("%s: PostOf digest %s, want %s", key, got, want)
	}
}

// benchmarkMaxCard times steady-state maximum-cardinality solves on one
// session arena, the way a reused popmatch.Solver runs them.
func benchmarkMaxCard(b *testing.B, ins *onesided.Instance) {
	cx := exec.New(exec.Config{Arena: exec.NewArena()})
	into := onesided.NewMatching(ins)
	opt := Options{Exec: cx}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := SolveRequest(ins, Request{Mode: ModeMaxCard, Into: into}, opt)
		if err != nil || !out.Exists {
			b.Fatalf("exists=%v err=%v", out.Exists, err)
		}
	}
}

// BenchmarkMaxCardChain: G_M is one path of 2k-1 edges, so the cut lifting
// ladder cannot stop early and runs its worst-case ⌈log₂ n⌉+1 levels.
func BenchmarkMaxCardChain(b *testing.B) { benchmarkMaxCard(b, switchRing(b, 20_000, true)) }

// BenchmarkMaxCardRing: G_M is one 2k-cycle, so the ladder stops at its
// first level.
func BenchmarkMaxCardRing(b *testing.B) { benchmarkMaxCard(b, switchRing(b, 20_000, false)) }
