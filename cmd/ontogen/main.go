// Command ontogen emits a synthetic corpus from the paper's Table IV/V
// profiles as an OWL functional-style-syntax or OBO file, or converts an
// existing ontology between the two formats.
//
//	ontogen -profile WBbt.obo -o wbbt.obo            # generate as OBO
//	ontogen -profile bridg.biomedical_domain -o b.ofn # generate as OWL FSS
//	ontogen -list                                     # list profiles
//	ontogen -in anatomy.obo -o anatomy.ofn            # convert formats
//
// The output format follows the -o extension: .obo writes OBO (EL
// ontologies only), .omn writes Manchester syntax, everything else writes
// functional-style syntax.
package main

import (
	"flag"
	"fmt"
	"os"

	"parowl"
)

var (
	profileFlag = flag.String("profile", "", "Table IV/V profile to generate")
	scaleFlag   = flag.Int("scale", 1, "shrink the profile by this factor")
	seedFlag    = flag.Int64("seed", 1, "generation seed")
	inFlag      = flag.String("in", "", "input ontology to convert instead of generating")
	outFlag     = flag.String("o", "", "output path (.obo = OBO, otherwise OWL FSS); - or empty = stdout as FSS")
	listFlag    = flag.Bool("list", false, "list the available profiles and exit")
	metricsFlag = flag.Bool("metrics", false, "print the metrics row of the result to stderr")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ontogen:", err)
		os.Exit(1)
	}
}

func run() error {
	if *listFlag {
		fmt.Printf("%-26s %9s %8s %6s %8s\n", "profile", "concepts", "axioms", "qcrs", "dl")
		for _, p := range parowl.Profiles() {
			fmt.Printf("%-26s %9d %8d %6d %8s\n", p.Name, p.Concepts, p.Axioms, p.QCRs, p.PaperExpressivity)
		}
		return nil
	}

	var (
		ont *parowl.Ontology
		err error
	)
	eng := parowl.NewEngine()
	switch {
	case *inFlag != "":
		ont, err = eng.LoadFile(*inFlag)
	case *profileFlag != "":
		p, ok := parowl.ProfileByName(*profileFlag)
		if !ok {
			return fmt.Errorf("unknown profile %q (try -list)", *profileFlag)
		}
		if *scaleFlag > 1 {
			p = parowl.MiniProfile(p, *scaleFlag)
		}
		ont, err = eng.Generate(p, *seedFlag)
	default:
		return fmt.Errorf("need -profile NAME or -in FILE (see -list)")
	}
	if err != nil {
		return err
	}
	tbox := ont.TBox()
	if *metricsFlag {
		fmt.Fprintln(os.Stderr, parowl.ComputeMetrics(tbox))
	}

	if *outFlag == "" || *outFlag == "-" {
		return parowl.Write(os.Stdout, tbox, parowl.FormatFunctional)
	}
	return parowl.WriteFile(*outFlag, tbox, parowl.DetectFormat(*outFlag))
}
