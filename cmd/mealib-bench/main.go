// Command mealib-bench regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-reproduced comparisons.
//
// Usage:
//
//	mealib-bench            # everything
//	mealib-bench -tab 5     # one table (1..5)
//	mealib-bench -fig 9     # one figure (1, 9, 10, 11, 12, 13, 14)
//	mealib-bench -scale 2   # scale factor for the measured Figure 1
//	mealib-bench -ablations # the DESIGN.md design choices, quantified
//
// Wall-clock and model-clock measurements of the engine itself live in the
// nested bench/ module (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"mealib/internal/exp"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (1, 9, 10, 11, 12, 13, 14)")
	tab := flag.Int("tab", 0, "regenerate one table (1..5)")
	scale := flag.Int("scale", 1, "workload scale for the measured Figure 1")
	ablations := flag.Bool("ablations", false, "quantify the DESIGN.md design choices")
	asJSON := flag.Bool("json", false, "emit JSON instead of text tables")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mealib-bench:", err)
		os.Exit(1)
	}
	printTable := func(t *exp.Table, err error) {
		if err != nil {
			fail(err)
		}
		if *asJSON {
			out, err := t.JSON()
			if err != nil {
				fail(err)
			}
			fmt.Println(out)
			return
		}
		fmt.Println(t.Render())
	}

	tables := map[int]func() (*exp.Table, error){
		1: func() (*exp.Table, error) { return exp.Table1(), nil },
		2: func() (*exp.Table, error) { return exp.Table2(), nil },
		3: func() (*exp.Table, error) { return exp.Table3(), nil },
		4: func() (*exp.Table, error) { return exp.Table4(), nil },
		5: func() (*exp.Table, error) { return exp.Table5(), nil },
	}
	figures := map[int]func() (*exp.Table, error){
		1:  func() (*exp.Table, error) { return exp.RenderFigure1(*scale) },
		9:  exp.RenderFigure9,
		10: exp.RenderFigure10,
		11: func() (*exp.Table, error) { return exp.RenderFigure11(), nil },
		12: exp.RenderFigure12,
		13: exp.RenderFigure13,
		14: exp.RenderFigure14,
	}

	switch {
	case *ablations:
		printTable(exp.RenderAblations())
	case *tab != 0:
		fn, ok := tables[*tab]
		if !ok {
			fail(fmt.Errorf("no table %d", *tab))
		}
		printTable(fn())
	case *fig != 0:
		fn, ok := figures[*fig]
		if !ok {
			fail(fmt.Errorf("no figure %d", *fig))
		}
		printTable(fn())
	default:
		for _, i := range []int{1, 2, 3, 4, 5} {
			printTable(tables[i]())
		}
		for _, i := range []int{1, 9, 10, 11, 12, 13, 14} {
			printTable(figures[i]())
		}
		printTable(exp.RenderAblations())
	}
}
