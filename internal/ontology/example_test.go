package ontology_test

import (
	"fmt"

	"stopss/internal/message"
	"stopss/internal/ontology"
	"stopss/internal/semantic"
)

// ExampleLoad compiles an ODL document and uses it for semantic
// expansion.
func ExampleLoad() {
	ont, err := ontology.Load(`
domain jobs
synonyms { university: school }
mappings {
    rule experience
        when exists("graduation year")
        derive "professional experience" = 2003 - attr("graduation year")
}
`, ontology.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	stage := ont.Stage(semantic.FullConfig())
	res := stage.ProcessEvent(message.E("school", "Toronto", "graduation year", 1990))
	v, _ := res.Event.Get("professional experience")
	fmt.Println(ont.Domain, v)
	// Output:
	// jobs 13
}

// ExampleFormat pretty-prints a parsed document in canonical form.
func ExampleFormat() {
	doc, _ := ontology.Parse(`domain d synonyms { a: b , c }`)
	fmt.Print(ontology.Format(doc))
	// Output:
	// domain d
	//
	// synonyms {
	//     a: b, c
	// }
}

// ExampleImportDAML translates a DAML+OIL fragment (the paper's future
// work) into the runtime representation.
func ExampleImportDAML() {
	ont, err := ontology.ImportDAML(`<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="r" xmlns:rdfs="s" xmlns:daml="d">
  <daml:Class rdf:ID="car">
    <rdfs:subClassOf rdf:resource="#vehicle"/>
  </daml:Class>
</rdf:RDF>`, "autos")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(ont.Hierarchy.IsA("car", "vehicle"))
	// Output:
	// true
}
