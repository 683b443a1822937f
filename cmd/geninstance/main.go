// geninstance generates popular-matching instances in the text or binary
// format.
//
// Usage:
//
//	geninstance [-kind random|zipf|ties|solvable|unsolvable|broom|capacitated]
//	            [-applicants N] [-posts N] [-minlen N] [-maxlen N]
//	            [-skew F] [-tieprob F] [-depth N] [-maxcap N] [-seed N]
//	            [-format text|binary]
//
// -maxcap > 1 attaches uniform random per-post capacities in [1, maxcap] to
// any kind, emitted as the `c <caps...>` header line; kind=capacitated is
// shorthand for kind=random with capacities (default maxcap 3).
//
// -format binary emits the zero-copy columnar binary encoding instead of
// text; every read surface (popmatch, popserved uploads) auto-detects it
// by magic.
package main

import (
	"bufio"
	"flag"
	"log"
	"math"
	"math/rand"
	"os"

	"repro/popmatch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geninstance: ")
	kind := flag.String("kind", "random", "random|zipf|ties|solvable|unsolvable|broom|capacitated")
	applicants := flag.Int("applicants", 100, "number of applicants")
	posts := flag.Int("posts", 100, "number of posts")
	minLen := flag.Int("minlen", 1, "minimum list length")
	maxLen := flag.Int("maxlen", 6, "maximum list length")
	skew := flag.Float64("skew", 1.0, "Zipf exponent (kind=zipf)")
	tieProb := flag.Float64("tieprob", 0.3, "tie probability (kind=ties)")
	depth := flag.Int("depth", 8, "tree depth (kind=broom); groups (kind=unsolvable)")
	maxCap := flag.Int("maxcap", 1, "attach per-post capacities uniform in [1,maxcap] (1 = unit posts)")
	seed := flag.Int64("seed", 1, "random seed")
	format := flag.String("format", "text", "output format: text|binary")
	flag.Parse()
	if *format != "text" && *format != "binary" {
		log.Fatalf("unknown format %q (want text or binary)", *format)
	}
	if *applicants < 0 || *posts < 0 || *depth < 0 || *maxLen < 1 {
		log.Fatal("-applicants, -posts and -depth must be >= 0 and -maxlen >= 1")
	}
	// Applicant and post ids are int32: a broom of depth d has 2^(d+1)-1
	// posts, the unsolvable family 3·depth applicants.
	if *applicants > math.MaxInt32 || *posts > math.MaxInt32 ||
		(*kind == "broom" && *depth > 30) || (*kind == "unsolvable" && *depth > math.MaxInt32/3) {
		log.Fatal("-applicants, -posts or -depth exceeds the int32 id space")
	}
	switch *kind {
	case "random", "zipf", "ties", "capacitated":
		if *applicants > 0 && *posts < 1 {
			log.Fatalf("-kind %s needs -posts >= 1 to draw preference lists from", *kind)
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	var ins *popmatch.Instance
	switch *kind {
	case "random":
		ins = popmatch.RandomStrict(rng, *applicants, *posts, *minLen, *maxLen)
	case "zipf":
		ins = popmatch.RandomZipf(rng, *applicants, *posts, *maxLen, *skew)
	case "ties":
		ins = popmatch.RandomTies(rng, *applicants, *posts, *minLen, *maxLen, *tieProb)
	case "solvable":
		extra := *posts - *applicants
		if extra < 0 {
			extra = 0
		}
		ins = popmatch.Solvable(rng, *applicants, extra, *maxLen)
	case "unsolvable":
		ins = popmatch.Unsolvable(*depth)
	case "broom":
		ins = popmatch.BinaryBroom(*depth)
	case "capacitated":
		if *maxCap < 2 {
			*maxCap = 3
		}
		ins = popmatch.RandomCapacitated(rng, *applicants, *posts, *minLen, *maxLen, *maxCap)
	default:
		log.Fatalf("unknown kind %q", *kind)
	}
	if *maxCap > 1 && ins.Capacities == nil {
		if err := ins.SetCapacities(popmatch.RandomCapacities(rng, ins.NumPosts, *maxCap)); err != nil {
			log.Fatal(err)
		}
	}
	// A 1 MiB buffer keeps large generation (n >= 10^5 applicants)
	// from being dominated by small stdout writes; Write flushes its own
	// internal bufio through this one.
	w := bufio.NewWriterSize(os.Stdout, 1<<20)
	write := popmatch.Write
	if *format == "binary" {
		write = popmatch.WriteBinary
	}
	if err := write(w, ins); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
