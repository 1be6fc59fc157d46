// Command taxdiff classifies two ontology files and reports the semantic
// differences between their taxonomies: added/removed entailed
// subsumptions, unsatisfiability changes, and vocabulary changes. It is
// the regression check ontology maintainers run before releasing an
// edited ontology.
//
//	taxdiff old.obo new.obo
//
// Exit status: 0 when identical, 1 when different, 2 on error — including
// when either classification leaves tests undecided under the per-test
// budget, because a diff over an incomplete taxonomy proves nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"parowl"
)

var (
	workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	testTimeout = flag.Duration("test-timeout", 0, "budget per sat?/subs? test (0 = none)")
	testRetries = flag.Int("test-retries", 0, "escalating retries per timed-out test")
)

func main() {
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: taxdiff [flags] old.(obo|ofn|omn) new.(obo|ofn|omn)")
		os.Exit(2)
	}
	diff, err := run(flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "taxdiff:", err)
		os.Exit(2)
	}
	fmt.Print(diff.String())
	if !diff.Empty() {
		os.Exit(1)
	}
}

func run(oldPath, newPath string) (*parowl.TaxonomyDiff, error) {
	eng := parowl.NewEngine(parowl.WithOptions(parowl.Options{
		Workers:     *workers,
		ELPrepass:   true,
		ModelFilter: true,
		TestTimeout: *testTimeout,
		TestRetries: *testRetries,
	}))
	classifyFile := func(path string) (*parowl.Taxonomy, error) {
		ont, err := eng.LoadFile(path)
		if err != nil {
			return nil, err
		}
		res, err := ont.Classify(context.Background())
		if err != nil {
			return nil, fmt.Errorf("classifying %s: %w", path, err)
		}
		if n := len(res.Undecided); n > 0 {
			// An undecided test can hide a real difference, so comparing
			// the incomplete taxonomies could report "identical" for
			// ontologies that differ. Refuse to diff; list the pairs so the
			// operator can rerun them with a larger budget.
			fmt.Fprintf(os.Stderr, "taxdiff: %s: %d test(s) undecided under the %v budget; "+
				"refusing to diff an incomplete taxonomy\n", path, n, *testTimeout)
			for _, u := range res.Undecided {
				fmt.Fprintf(os.Stderr, "  undecided: %v\n", u)
			}
			return nil, fmt.Errorf("%s: %d undecided test(s); raise -test-timeout/-test-retries and retry", path, n)
		}
		return res.Taxonomy, nil
	}
	oldTax, err := classifyFile(oldPath)
	if err != nil {
		return nil, err
	}
	newTax, err := classifyFile(newPath)
	if err != nil {
		return nil, err
	}
	return parowl.CompareTaxonomies(oldTax, newTax), nil
}
