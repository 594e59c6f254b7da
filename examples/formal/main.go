// Formal demonstrates the paper's methodology end to end on the embedded
// specifications: parse an Estelle specification, execute it directly
// through the interpreter, execute the estgen-generated Go for the same
// specification, and show that both produce identical transition traces.
package main

import (
	"fmt"
	"log"

	"xmovie"
	"xmovie/internal/estelle"
	"xmovie/internal/estelle/estparse"
	"xmovie/internal/gen/pingpong"
)

func main() {
	src, err := xmovie.Specs.ReadFile("specs/pingpong.est")
	if err != nil {
		log.Fatal(err)
	}
	spec, err := estparse.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed specification %s: %d channels, %d modules, %d bodies\n",
		spec.Name, len(spec.Channels), len(spec.Modules), len(spec.Bodies))

	run := func(label string, build func(rt *estelle.Runtime) error) []string {
		var events []string
		rt := estelle.NewRuntime(estelle.WithTrace(func(e estelle.TraceEvent) {
			events = append(events, fmt.Sprintf("%s %s->%s %s", e.Module, e.From, e.To, e.Msg))
		}))
		if err := build(rt); err != nil {
			log.Fatal(err)
		}
		fired, err := estelle.NewStepper(rt).RunUntilIdle(100000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d transitions fired\n", label, fired)
		return events
	}

	// 1. The interpreter executes the AST directly.
	compiled, err := estparse.Compile(spec)
	if err != nil {
		log.Fatal(err)
	}
	interpreted := run("interpreted", func(rt *estelle.Runtime) error {
		_, err := compiled.Build(rt)
		return err
	})

	// 2. The generated Go (internal/gen/pingpong, produced by estgen from
	// the same file) executes as compiled code.
	generated := run("generated  ", func(rt *estelle.Runtime) error {
		_, err := pingpong.BuildPingPong(rt, nil)
		return err
	})

	if len(interpreted) != len(generated) {
		log.Fatalf("trace lengths differ: %d vs %d", len(interpreted), len(generated))
	}
	for i := range interpreted {
		if interpreted[i] != generated[i] {
			log.Fatalf("traces diverge at step %d:\n  interpreted %s\n  generated   %s",
				i, interpreted[i], generated[i])
		}
	}
	fmt.Printf("both executions produced the identical %d-step trace:\n", len(interpreted))
	for i, e := range interpreted {
		if i < 4 || i >= len(interpreted)-2 {
			fmt.Println("  ", e)
		} else if i == 4 {
			fmt.Println("   ...")
		}
	}
}
