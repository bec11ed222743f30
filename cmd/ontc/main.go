// Command ontc is the ODL ontology compiler and checker: it parses one
// or more ODL documents, compiles them into the runtime structures, and
// reports a summary or the first error. With several inputs the compiled
// ontologies are merged (multi-domain check).
//
// With -delta it instead diffs exactly two compiled ontologies and
// emits the knowledge-delta log (one JSON delta per line) that evolves
// the first into the second — the input format of the stopss-server
// -kb-watch flag and POST /api/v1/kb admin endpoint, which replicate the
// deltas across the broker federation at runtime.
//
// Usage:
//
//	ontc jobs.odl
//	ontc -normalize -prefix jobs.odl autos.odl
//	ontc -builtin                  # compile the embedded job-finder/autos domains
//	ontc -delta old.odl new.odl > update.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"stopss/internal/knowledge"
	"stopss/internal/ontology"
	"stopss/internal/workload"
)

func main() {
	normalize := flag.Bool("normalize", false, "lower-case and space-normalize all terms")
	prefix := flag.Bool("prefix", false, "prefix rule names with their domain")
	builtin := flag.Bool("builtin", false, "compile the embedded jobs and autos ontologies")
	format := flag.Bool("fmt", false, "print each input reformatted in canonical ODL instead of compiling")
	delta := flag.Bool("delta", false, "diff two ontologies (old new) and print a JSONL knowledge-delta log")
	flag.Parse()

	opts := ontology.Options{Normalize: *normalize, Prefix: *prefix}
	type input struct {
		name string
		src  string
	}
	var inputs []input
	if *builtin {
		inputs = append(inputs,
			input{"builtin:jobs", workload.JobsODL},
			input{"builtin:autos", workload.AutosODL})
	}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ontc: %v\n", err)
			os.Exit(1)
		}
		inputs = append(inputs, input{path, string(src)})
	}
	if len(inputs) == 0 {
		fmt.Fprintln(os.Stderr, "ontc: no input (pass .odl files or -builtin)")
		os.Exit(2)
	}

	if *format {
		for _, in := range inputs {
			doc, err := ontology.Parse(in.src)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ontc: %s: %v\n", in.name, err)
				os.Exit(1)
			}
			fmt.Print(ontology.Format(doc))
		}
		return
	}

	if *delta {
		if len(inputs) != 2 {
			fmt.Fprintln(os.Stderr, "ontc: -delta needs exactly two inputs: old.odl new.odl")
			os.Exit(2)
		}
		var structs [2]knowledge.Structures
		for i, in := range inputs {
			ont, err := ontology.Load(in.src, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ontc: %s: %v\n", in.name, err)
				os.Exit(1)
			}
			structs[i] = knowledge.Structures{
				Synonyms: ont.Synonyms, Hierarchy: ont.Hierarchy, Mappings: ont.Mappings,
			}
		}
		deltas, warnings, err := knowledge.Diff(structs[0], structs[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "ontc: diff: %v\n", err)
			os.Exit(1)
		}
		for _, w := range warnings {
			fmt.Fprintf(os.Stderr, "ontc: warning: %s\n", w)
		}
		for _, d := range deltas {
			line, err := knowledge.Encode(d)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ontc: encoding %s: %v\n", d, err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", line)
		}
		fmt.Fprintf(os.Stderr, "ontc: %d deltas, %d warnings\n", len(deltas), len(warnings))
		return
	}

	var compiled []*ontology.Ontology
	for _, in := range inputs {
		ont, err := ontology.Load(in.src, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ontc: %s: %v\n", in.name, err)
			os.Exit(1)
		}
		fmt.Printf("%-20s %s\n", in.name+":", ont.Summary())
		compiled = append(compiled, ont)
	}
	if len(compiled) > 1 {
		merged, err := ontology.Merge(compiled...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ontc: merge: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-20s %s\n", "merged:", merged.Summary())
	}
}
