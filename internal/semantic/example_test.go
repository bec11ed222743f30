package semantic_test

import (
	"fmt"

	"stopss/internal/message"
	"stopss/internal/semantic"
)

// ExampleSynonyms shows the first approach of the paper: rewriting
// semantically equivalent attribute names to a root term.
func ExampleSynonyms() {
	syn := semantic.NewSynonyms()
	_ = syn.AddGroup("university", "school", "college")

	root, rewritten := syn.Canonical("school")
	fmt.Println(root, rewritten)
	root, rewritten = syn.Canonical("university")
	fmt.Println(root, rewritten)
	// Output:
	// university true
	// university false
}

// ExampleHierarchy shows rule R1/R2 directionality: specialization
// chains can be walked upward (generalization) but IsA is directional.
func ExampleHierarchy() {
	h := semantic.NewHierarchy()
	_ = h.AddIsA("sedan", "car")
	_ = h.AddIsA("car", "vehicle")

	fmt.Println(h.Ancestors("sedan", 0))
	fmt.Println(h.IsA("sedan", "vehicle"), h.IsA("vehicle", "sedan"))
	// Output:
	// [car vehicle]
	// true false
}

// ExampleStage runs the whole Figure 1 pipeline on the paper's §3.1
// mapping-function example.
func ExampleStage() {
	syn := semantic.NewSynonyms()
	_ = syn.AddGroup("university", "school")

	maps := semantic.NewMappings()
	_ = maps.Add(semantic.FuncOf{
		FName:     "experience-from-graduation",
		FTriggers: []string{"graduation year"},
		FApply: func(e message.Event) []message.Pair {
			v, ok := e.Get("graduation year")
			if !ok {
				return nil
			}
			y, _ := v.AsFloat()
			return []message.Pair{{Attr: "professional experience", Val: message.Int(2003 - int64(y))}}
		},
	})

	stage := semantic.NewStage(syn, nil, maps, semantic.FullConfig())
	res := stage.ProcessEvent(message.E("school", "Toronto", "graduation year", 1993))
	fmt.Println(res.Event)
	// Output:
	// (university, Toronto)(graduation year, 1993)(professional experience, 10)
}

// ExamplePairMap shows the paper's §1 mainframe-developer inference.
func ExamplePairMap() {
	pm := semantic.PairMap{
		MapName: "mainframe-to-cobol",
		Attr:    "position",
		Match:   message.String("mainframe developer"),
		Derived: []message.Pair{
			{Attr: "skill", Val: message.String("COBOL")},
			{Attr: "era", Val: message.String("1960-1980")},
		},
	}
	for _, p := range pm.Apply(message.E("position", "mainframe developer")) {
		fmt.Printf("(%s, %s)\n", p.Attr, p.Val)
	}
	// Output:
	// (skill, COBOL)
	// (era, 1960-1980)
}
