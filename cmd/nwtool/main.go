// Command nwtool inspects nested words given in the tagged notation of the
// paper ("<a" call, "a" internal, "a>" return) or in the XML-like document
// syntax, reports their structural properties, and compiles query sets to
// serialized bundles.
//
// Usage:
//
//	nwtool word  '<a <b b> a>'      inspect a tagged nested word
//	nwtool doc   '<a> text </a>'    inspect an XML-like document
//	nwtool tree  'a(b(),c(d()))'    encode an ordered tree as a tree word
//	nwtool query '<doc> ... </doc>' LABEL...
//	                                run the //LABEL1//LABEL2... path query
//	nwtool compile -labels l1,l2 [-order ...] [-path ...] [-dsl QUERIES] [-plan] -o FILE
//	                                compile the query set once and write a
//	                                serialized bundle; nwquery and nwserve
//	                                boot from it with -queryset FILE; -dsl
//	                                adds textual queries (see
//	                                internal/query/dsl) to the set; -plan
//	                                product-compiles clusters of similar
//	                                queries into shared automata (see
//	                                internal/query/plan and
//	                                docs/COMPILATION.md)
//	nwtool bundle [-json] FILE      describe a serialized bundle (with -json,
//	                                the machine-readable schema /v1/status of
//	                                nwserved shares), product groups included
//	nwtool vet [-pubkey FILE [-sig FILE]] FILE
//	                                statically verify a serialized bundle;
//	                                with -pubkey, also require a valid
//	                                detached signature (FILE.sig by default)
//	nwtool keygen -o NAME           write an ed25519 keypair: NAME.key
//	                                (private, keep on the compile host) and
//	                                NAME.pub (public, ship to the fleet)
//	nwtool sign -key FILE BUNDLE    write BUNDLE.sig, a detached NWS1
//	                                envelope over the bundle's content hash
//	nwtool verify -pubkey FILE [-sig FILE] BUNDLE
//	                                check a bundle's content hash and
//	                                detached signature; exits 1 on any
//	                                mismatch
//
// keygen/sign/verify implement the distribution flow of
// docs/DISTRIBUTION.md: sign once on the compile host, verify on every
// worker (and automatically in nwserved -pubkey) before a bundle is
// mapped.
//
// The compile subcommand builds its query set with the same builder
// nwquery and nwserve use for the same -labels/-order/-path/-dsl flags
// (cmd/internal/queryset: well-formedness always, the order and path
// queries when given, then the DSL queries) over the alphabet the flags
// determine, so a bundle-booted server answers with verdicts identical to
// in-process compilation.
//
// The vet subcommand checks a serialized bundle before any process maps
// it: the decoder's hash, table shape, range and demux checks, then the
// dead-sink and accept-mask cross-representation agreement, and a reachability/coaccessibility analysis reporting
// unreachable states and dead transitions.  Decode failures and violations
// exit 1; dead-weight findings are warnings and exit 0 (see
// docs/ANALYZERS.md for the report format).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/cmd/internal/queryset"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
	"repro/internal/query"
	"repro/internal/query/format"
	"repro/internal/query/plan"
	"repro/internal/tree"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "word", "doc", "tree", "query", "vet", "sign", "verify":
		if len(os.Args) < 3 {
			usage()
		}
	}
	switch os.Args[1] {
	case "word":
		n, err := nestedword.Parse(os.Args[2])
		exitOn(err)
		describe(n)
	case "doc":
		n, err := docstream.Parse(os.Args[2])
		exitOn(err)
		describe(n)
	case "tree":
		t, err := tree.ParseTerm(os.Args[2])
		exitOn(err)
		n := tree.ToNestedWord(t)
		fmt.Printf("tree      : %v\n", t)
		fmt.Printf("tree word : %v\n", n)
		describe(n)
	case "query":
		if len(os.Args) < 4 {
			usage()
		}
		n, err := docstream.Parse(os.Args[2])
		exitOn(err)
		labels := os.Args[3:]
		alpha := alphabet.New(append(n.Alphabet(), labels...)...)
		q := query.PathQuery(alpha, labels...)
		fmt.Printf("document : %v\n", n)
		fmt.Printf("query    : //%v\n", labels)
		fmt.Printf("matches  : %v\n", q.Accepts(n))
	case "compile":
		compileBundle(os.Args[2:])
	case "bundle":
		describeBundle(os.Args[2:])
	case "vet":
		vetArtifact(os.Args[2:])
	case "keygen":
		keygen(os.Args[2:])
	case "sign":
		signBundle(os.Args[2:])
	case "verify":
		verifyBundle(os.Args[2:])
	default:
		usage()
	}
}

// compileBundle compiles the standard CLI query set — plus any DSL-authored
// queries — once and writes it as a serialized bundle that nwquery/nwserve
// boot from with -queryset.
func compileBundle(args []string) {
	fs := flag.NewFlagSet("nwtool compile", flag.ExitOnError)
	qf := queryset.Register(fs, queryset.Usage{
		Labels: "comma-separated document alphabet (labels outside it map to the out-of-alphabet ID at serving time)",
		DSL:    "semicolon-separated DSL queries (e.g. 'within book: title before author; no write after close'); their labels join the alphabet",
	})
	planFlag := fs.Bool("plan", false, "product-compile clusters of structurally similar queries into shared automata before writing")
	out := fs.String("o", "queries.nwq", "output bundle file")
	fs.Parse(args)

	bundle, err := qf.Build(nil)
	exitOn(err)
	alpha := bundle.Alphabet()
	if alpha.Size() == 0 {
		exitOn(fmt.Errorf("compile: no alphabet — give -labels (and/or -order, -path, -dsl)"))
	}
	if *planFlag {
		planned, dec, err := plan.Bundle(bundle, plan.Options{})
		exitOn(err)
		bundle = planned
		fmt.Printf("plan: %d product groups (%d states total), %d queries fanned out\n",
			len(dec.Groups), dec.States, len(dec.Solo))
	}
	data := bundle.Marshal()
	exitOn(os.WriteFile(*out, data, 0o644))
	fmt.Printf("wrote %s: %d queries over alphabet %v, %d bytes\n", *out, bundle.Len(), alpha, len(data))
	for _, name := range bundle.Names() {
		fmt.Printf("  %s\n", name)
	}
}

// describeBundle loads a serialized bundle and summarizes its contents —
// human-readable by default, or with -json as the machine-readable
// query.BundleDesc schema shared with the serving front-end's /v1/status
// endpoint, so ops tooling can diff what is on disk against what a server
// actually loaded.
func describeBundle(args []string) {
	fs := flag.NewFlagSet("nwtool bundle", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the machine-readable bundle description (the schema /v1/status shares)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	b, err := query.OpenBundle(path)
	exitOn(err)
	defer b.Close()
	desc := query.Describe(b)
	if *asJSON {
		body, err := json.MarshalIndent(desc, "", "  ")
		exitOn(err)
		fmt.Printf("%s\n", body)
		return
	}
	fmt.Printf("bundle   : %s\n", path)
	fmt.Printf("alphabet : %v (%d symbols)\n", b.Alphabet(), desc.AlphabetSize)
	fmt.Printf("queries  : %d\n", len(desc.Queries))
	for _, q := range desc.Queries {
		if q.Group > 0 {
			fmt.Printf("  %-30s %s (group %d)\n", q.Name, q.Kind, q.Group)
			continue
		}
		fmt.Printf("  %-30s %s, %d states\n", q.Name, q.Kind, q.States)
	}
	if len(desc.Groups) > 0 {
		fmt.Printf("groups   : %d\n", len(desc.Groups))
		for i, g := range desc.Groups {
			fmt.Printf("  group %d: %s, %d states, %d mask words, demuxes %v\n",
				i+1, g.Kind, g.States, g.MaskWords, g.Queries)
		}
	}
}

// vetArtifact runs the automaton-level verifier over a serialized bundle.
// The file is read (not mapped) so that a hostile artifact is vetted from a
// private copy, and decode failures reject it before any table is indexed.
// With -pubkey the artifact must additionally carry a valid detached
// signature (its sibling .sig file unless -sig names one).
func vetArtifact(args []string) {
	fs := flag.NewFlagSet("nwtool vet", flag.ExitOnError)
	pubkey := fs.String("pubkey", "", "NWP1 public key file; when set, the artifact's detached signature must verify")
	sigPath := fs.String("sig", "", "detached signature file (default: ARTIFACT.sig)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	exitOn(err)
	rep, err := query.VetBytes(data)
	exitOn(err)
	fmt.Print(rep)
	if *pubkey != "" {
		pub, err := os.ReadFile(*pubkey)
		exitOn(err)
		sig, err := os.ReadFile(sigFile(*sigPath, path))
		exitOn(err)
		if err := format.Verify(pub, sig, data); err != nil {
			exitOn(err)
		}
		fmt.Println("signature: ok")
	}
	if rep.Errors() > 0 {
		os.Exit(1)
	}
}

// sigFile resolves the detached-signature path: an explicit -sig value, or
// the artifact's sibling .sig file.
func sigFile(explicit, artifact string) string {
	if explicit != "" {
		return explicit
	}
	return artifact + ".sig"
}

// keygen writes a fresh ed25519 keypair as NAME.key (NWK1 private seed)
// and NAME.pub (NWP1 public key).
func keygen(args []string) {
	fs := flag.NewFlagSet("nwtool keygen", flag.ExitOnError)
	out := fs.String("o", "bundle-signing", "output name: NAME.key and NAME.pub are written")
	fs.Parse(args)
	priv, pub, err := format.GenerateKey()
	exitOn(err)
	exitOn(os.WriteFile(*out+".key", priv, 0o600))
	exitOn(os.WriteFile(*out+".pub", pub, 0o644))
	fmt.Printf("wrote %s.key (private — keep on the compile host) and %s.pub (ship to the fleet)\n", *out, *out)
}

// signBundle writes BUNDLE.sig, the detached NWS1 envelope over the
// bundle's content hash.  The bundle must be hashed (version 2), as
// everything Bundle.Marshal writes is.
func signBundle(args []string) {
	fs := flag.NewFlagSet("nwtool sign", flag.ExitOnError)
	keyPath := fs.String("key", "", "NWK1 private key file (from nwtool keygen)")
	sigPath := fs.String("o", "", "output signature file (default: BUNDLE.sig)")
	fs.Parse(args)
	if fs.NArg() != 1 || *keyPath == "" {
		usage()
	}
	path := fs.Arg(0)
	keyFile, err := os.ReadFile(*keyPath)
	exitOn(err)
	priv, err := format.ParsePrivateKey(keyFile)
	exitOn(err)
	data, err := os.ReadFile(path)
	exitOn(err)
	sig, err := format.Sign(priv, data)
	exitOn(err)
	out := sigFile(*sigPath, path)
	exitOn(os.WriteFile(out, sig, 0o644))
	sum, err := format.ContentHash(data)
	exitOn(err)
	fmt.Printf("wrote %s: ed25519 over content hash %x\n", out, sum)
}

// verifyBundle checks an artifact's content hash and detached signature,
// exiting 1 on any mismatch — the worker-side half of the sign/verify
// round trip.
func verifyBundle(args []string) {
	fs := flag.NewFlagSet("nwtool verify", flag.ExitOnError)
	pubkey := fs.String("pubkey", "", "NWP1 public key file (from nwtool keygen)")
	sigPath := fs.String("sig", "", "detached signature file (default: BUNDLE.sig)")
	fs.Parse(args)
	if fs.NArg() != 1 || *pubkey == "" {
		usage()
	}
	path := fs.Arg(0)
	pub, err := os.ReadFile(*pubkey)
	exitOn(err)
	sig, err := os.ReadFile(sigFile(*sigPath, path))
	exitOn(err)
	data, err := os.ReadFile(path)
	exitOn(err)
	exitOn(format.Verify(pub, sig, data))
	sum, err := format.ContentHash(data)
	exitOn(err)
	fmt.Printf("ok: %s verifies (content hash %x)\n", path, sum)
}

func describe(n *nestedword.NestedWord) {
	calls, internals, returns := n.Counts()
	fmt.Printf("nested word : %v\n", n)
	fmt.Printf("length      : %d (%d calls, %d internals, %d returns)\n", n.Len(), calls, internals, returns)
	fmt.Printf("depth       : %d\n", n.Depth())
	fmt.Printf("well-matched: %v   rooted: %v   tree word: %v\n", n.IsWellMatched(), n.IsRooted(), n.IsTreeWord())
	fmt.Printf("pending     : %d calls, %d returns\n", len(n.PendingCalls()), len(n.PendingReturns()))
	fmt.Printf("alphabet    : %v\n", n.Alphabet())
	if n.IsTreeWord() {
		if t, err := tree.FromNestedWord(n); err == nil {
			fmt.Printf("as tree     : %v\n", t)
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nwtool word|doc|tree|query|compile|bundle|vet|keygen|sign|verify ARG [LABEL...]")
	fmt.Fprintln(os.Stderr, "       nwtool compile -labels l1,l2 [-order ...] [-path ...] [-dsl QUERIES] -o FILE")
	fmt.Fprintln(os.Stderr, "       nwtool keygen -o NAME")
	fmt.Fprintln(os.Stderr, "       nwtool sign -key NAME.key BUNDLE")
	fmt.Fprintln(os.Stderr, "       nwtool verify -pubkey NAME.pub [-sig FILE] BUNDLE")
	os.Exit(2)
}
