// Command mcamui generates an interactive text interface from an Estelle
// specification — the stand-in for the paper's X-interface generator
// (refs [10], [13]). It parses the given specification, instantiates it
// (interpreted), and attaches a prompt to one module's interaction point:
// every message the channel allows becomes a command; everything the
// module emits is printed on arrival.
//
// Usage:
//
//	mcamui -spec specs/mcam_skeleton.est -modvar mca -ip U
//
// The default drives the MCA skeleton's user interface. Spec paths are
// resolved on disk first; the specs/*.est corpus embedded in the xmovie
// package is the fallback, so the default works from any directory.
package main

import (
	"flag"
	"fmt"
	"os"

	"xmovie"
	"xmovie/internal/chanui"
	"xmovie/internal/estelle"
	"xmovie/internal/estelle/estparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mcamui:", err)
		os.Exit(1)
	}
}

func run() error {
	specFile := flag.String("spec", "specs/mcam_skeleton.est", "Estelle specification")
	modvar := flag.String("modvar", "mca", "configuration module variable to attach to")
	ipName := flag.String("ip", "U", "interaction point to drive")
	flag.Parse()

	src, err := os.ReadFile(*specFile)
	if err != nil {
		// Not on disk: try the embedded corpus so the documented default
		// (-spec specs/mcam_skeleton.est) works from any directory.
		embedded, eerr := xmovie.Specs.ReadFile(*specFile)
		if eerr != nil {
			return err
		}
		src = embedded
	}
	spec, err := estparse.Parse(string(src))
	if err != nil {
		return err
	}
	compiled, err := estparse.Compile(spec)
	if err != nil {
		return err
	}
	// External modules get echoing stub bodies: they acknowledge whatever
	// arrives so the driven module's FSM can progress.
	for _, m := range spec.Modules {
		if !m.External {
			continue
		}
		mod := m
		compiled.Externals[mod.Name] = func() estelle.Body {
			return estelle.BodyFunc(func(ctx *estelle.Ctx) bool {
				worked := false
				for _, ipd := range mod.IPs {
					ip := ctx.Self().IP(ipd.Name)
					for {
						in := ip.PopInput()
						if in == nil {
							break
						}
						worked = true
						fmt.Printf("   [%s] consumed %s\n", mod.Name, in.Name)
					}
				}
				return worked
			})
		}
	}
	rt := estelle.NewRuntime()
	insts, err := compiled.Build(rt)
	if err != nil {
		return err
	}
	inst, ok := insts[*modvar]
	if !ok {
		return fmt.Errorf("specification has no modvar %q", *modvar)
	}
	ui, err := chanui.New(inst.IP(*ipName), os.Stdout)
	if err != nil {
		return err
	}
	// Sink the module's other unconnected IPs so every output is visible.
	for _, m := range spec.Modules {
		if m.Name != inst.Def().Name {
			continue
		}
		for _, ipd := range m.IPs {
			if ipd.Name == *ipName {
				continue
			}
			name := ipd.Name
			// Sinks only take effect on unconnected IPs; connected ones
			// keep routing to their peers.
			inst.IP(name).SetSink(func(in *estelle.Interaction) {
				fmt.Printf("   [%s.%s] %s\n", *modvar, name, in.Name)
			})
		}
	}
	sched := estelle.NewScheduler(rt, estelle.MapPerSystem)
	if err := sched.Start(); err != nil {
		return err
	}
	defer sched.Stop()
	fmt.Printf("driving %s.%s of specification %s (state %s)\n",
		*modvar, *ipName, spec.Name, inst.State())
	return ui.Run(os.Stdin)
}
