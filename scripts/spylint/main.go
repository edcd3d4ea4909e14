// Spylint is this repository's static-analysis vettool. It machine-
// checks the invariants the simulator's correctness rests on:
//
//	resetcomplete  every pooled/resettable type's Reset covers every
//	               struct field (pooling stays observably invisible)
//	detrand        deterministic packages take no randomness from the
//	               environment: no wall clock, no math/rand, no map
//	               iteration, no package-level mutable state
//	droppederr     experiment and report/render code never silently
//	               discards an error
//	hotalloc       //spylint:hotpath functions and everything they call
//	               intra-module are allocation-free (vet-time twin of
//	               the 0 allocs/op benchmark gates)
//	ctxflow        exported blocking library APIs accept and propagate
//	               context.Context; Background()/TODO() stay in main
//
// Run it through the build system:
//
//	go build -o /tmp/spylint ./scripts/spylint   (from this module)
//	go vet -vettool=/tmp/spylint ./...           (from the target module)
//
// or standalone over a module: `spylint ./...`. Findings are
// suppressed by `//spylint:allow <analyzer> <reason>` on the offending
// line or the line above; see each analyzer's Doc for details.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"spylint/internal/ctxflow"
	"spylint/internal/detrand"
	"spylint/internal/droppederr"
	"spylint/internal/framework"
	"spylint/internal/hotalloc"
	"spylint/internal/resetcomplete"
)

var analyzers = []*framework.Analyzer{
	resetcomplete.Analyzer,
	detrand.Analyzer,
	droppederr.Analyzer,
	hotalloc.Analyzer,
	ctxflow.Analyzer,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spylint: ")
	flag.Var(versionFlag{}, "V", "print version and exit (-V=full, go vet protocol)")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	detpkgs := flag.Bool("det-packages", false, "print the deterministic package list, one per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `spylint checks the spybox simulator's determinism, reset, error-handling,
hot-path allocation and context-propagation invariants.

usage:
	spylint unit.cfg        # one compilation unit (invoked by go vet -vettool)
	spylint ./...           # standalone, over packages of the current module
	spylint -det-packages   # list the packages detrand treats as deterministic

analyzers: %s
`, analyzerNames())
	}
	flag.Parse()

	if *printflags {
		printFlags()
		return
	}
	if *detpkgs {
		for _, p := range detrand.Packages {
			fmt.Println(p)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		framework.RunVetUnit(args[0], analyzers) // exits
		return
	}
	diags, err := framework.RunStandalone("", args, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func analyzerNames() string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// printFlags describes our flags as JSON, the contract `go vet` uses
// to learn which command-line flags it may forward to the tool.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements the -V=full protocol: `go vet` hashes the
// reported line into its action cache key, so the content hash of the
// executable must appear — editing an analyzer then invalidates every
// cached vet result.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (only -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
