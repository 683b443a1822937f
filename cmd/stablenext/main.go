// stablenext drives §VI: reads a stable marriage instance, computes a stable
// matching, and either lists all "next" stable matchings (Algorithm 4) or
// walks the whole lattice chain.
//
// Usage:
//
//	stablenext [-n N] [-seed N] [-walk] [-workers N] [-timeout D]
//
// For simplicity the tool generates a random instance of size N (the text
// format of the one-sided tools does not carry two-sided lists); -walk
// prints the full maximal chain instead of one step.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/stablematch"
)

func printMatching(prefix string, m *stablematch.Matching) {
	fmt.Printf("%s", prefix)
	for mi, w := range m.PM {
		fmt.Printf(" m%d-w%d", mi, w)
	}
	fmt.Println()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stablenext: ")
	n := flag.Int("n", 8, "instance size (0 = use the paper's Figure 5 instance)")
	seed := flag.Int64("seed", 1, "random seed")
	walk := flag.Bool("walk", false, "walk a maximal lattice chain to the woman-optimal matching")
	workers := flag.Int("workers", 0, "worker pool size (0 = all CPUs)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	flag.Parse()
	if *n < 0 {
		log.Fatal("-n must be >= 0")
	}

	var ins *stablematch.Instance
	var m *stablematch.Matching
	if *n == 0 {
		ins = stablematch.PaperInstance()
		m = stablematch.PaperMatching()
	} else {
		ins = stablematch.RandomInstance(rand.New(rand.NewSource(*seed)), *n)
		m = stablematch.GaleShapley(ins)
	}
	if err := stablematch.Verify(ins, m); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := stablematch.Options{Workers: *workers, Ctx: ctx}
	printMatching("M:", m)

	if *walk {
		chain, err := stablematch.LatticeWalk(ins, m, opt)
		if err != nil {
			log.Fatal(err)
		}
		for i, c := range chain[1:] {
			printMatching(fmt.Sprintf("step %d:", i+1), c)
		}
		fmt.Printf("# chain length %d (M0 to Mz inclusive)\n", len(chain))
		return
	}

	rots, err := stablematch.ExposedRotations(ins, m, opt)
	if err != nil {
		log.Fatal(err)
	}
	if len(rots) == 0 {
		fmt.Println("# M is the woman-optimal matching; no rotations exposed")
		return
	}
	for i, rho := range rots {
		fmt.Printf("rotation %d:", i)
		for j := range rho.Men {
			fmt.Printf(" (m%d,w%d)", rho.Men[j], rho.Women[j])
		}
		fmt.Println()
		next := stablematch.Eliminate(m, rho, opt)
		if err := stablematch.Verify(ins, next); err != nil {
			log.Fatalf("elimination unstable: %v", err)
		}
		printMatching(fmt.Sprintf("M\\rho%d:", i), next)
	}
}
