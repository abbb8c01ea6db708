// Command pqlc is the PQL checker: it parses, analyzes, and classifies a
// PQL query, reporting its strata, directedness class (Def. 5.2),
// VC-compatibility (Def. 4.1), and the evaluation modes it supports; with
// -explain also how its rules are lowered to slot programs.
//
//	pqlc query.pql
//	pqlc -param eps=0.01 -param alpha=5 query.pql
//	echo 'p(X) :- value(X, D, I).' | pqlc -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ariadne/internal/cliutil"
	"ariadne/internal/pql"
	"ariadne/internal/pql/analysis"
	"ariadne/internal/pql/eval"
)

func main() {
	var params cliutil.Params
	edbs := flag.String("edbs", "", "extra EDB declarations, e.g. prov_error:4,prov_prediction:4")
	explain := flag.Bool("explain", false, "show the lowering: record-sourced or materialised (and why), and per rule the planner, join order, row source of each step and slot count")
	flag.Var(&params, "param", "query parameter name=value (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pqlc [-param name=value] [-edbs name:arity,...] <file.pql | ->")
		os.Exit(2)
	}

	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fatal(err)
	}

	env := analysis.NewEnv()
	if err := params.Apply(env); err != nil {
		fatal(err)
	}
	if err := cliutil.ApplyEDBs(env, *edbs); err != nil {
		fatal(err)
	}

	prog, err := pql.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	q, err := analysis.Analyze(prog, env)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("rules:          %d\n", len(q.Rules))
	fmt.Printf("class:          %s\n", q.Class)
	fmt.Printf("vc-compatible:  %v\n", q.VCCompatible)
	fmt.Printf("recursive:      %v\n", q.Recursive)
	fmt.Printf("online:         %v\n", q.Class.OnlineEvaluable())
	fmt.Printf("layered:        %v\n", q.Class.LayeredEvaluable())
	fmt.Println("strata:")
	for i, stratum := range q.Strata {
		for _, r := range stratum {
			fmt.Printf("  [%d] %s\n", i, r)
		}
	}
	if *explain {
		text, err := eval.Explain(q)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pqlc:", err)
	os.Exit(1)
}
