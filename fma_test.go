package hog

import (
	"bufio"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-add mnemonics the Go assemblers of
// fuseArchs print: FMADD, FMSUB, FNMADD and FNMSUB with or without a
// precision suffix (D, S, F), arm64's vector FMLA/FMLS, and s390x's vector
// forms (VFMADB, WFMSDB, ...). Integer multiply-adds (arm64 MADD) are exact
// and do not match.
var fusedOp = regexp.MustCompile(`^(FN?M(ADD|SUB)[DSF]?|VFML[AS]|[VW]FN?M[AS][DS]?B)$`)

// asmLine matches an instruction line of -gcflags=-S output,
// "\t0x0010 00016 (netmodel.go:496)\tFMSUBD\tF2, F1, F3, F1", capturing the
// source position and the mnemonic.
var asmLine = regexp.MustCompile(`^\t0x[0-9a-f]+ \d+ \((.+:\d+)\)\t(\S+)`)

// fuseArchs are the architectures whose compilers fuse a product and a sum
// into one multiply-add. amd64's never does.
var fuseArchs = []string{"arm64", "riscv64", "loong64", "ppc64le", "s390x"}

// TestNoFusedMultiplyAdd cross-compiles every package of the module for
// fuseArchs with -gcflags=-S and fails on any fused multiply-add in one of
// its functions: those of the hog/... packages, and those of its commands
// and examples, which the assembler names main.*. A fused operation rounds
// once where amd64 rounds twice, so the same seed would give different
// results on that architecture. An explicit float64(x*y) conversion rounds
// the product and so forbids the fusion (Go spec, "Floating-point
// operators"). The build needs no network: the module has no dependencies
// and the toolchain cross-compiles offline.
func TestNoFusedMultiplyAdd(t *testing.T) {
	// go test caches a pass by the files this process reads, not by what
	// the go build below reads: stat every source file so that an edit to
	// a package this test does not link (a command, an example) runs it
	// again.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Directories the go command ignores, such as .git and
			// .bench_build's caches.
			if name := d.Name(); path != "." && (name[0] == '.' || name[0] == '_' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		_, err = os.Stat(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range fuseArchs {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "build", "-gcflags=-S", "./...")
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0", "GOTOOLCHAIN=local")
			asm, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var fn string
			var headers []string // the last non-assembly lines, which hold any build error
			sc := bufio.NewScanner(asm)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				line := sc.Text()
				if !strings.HasPrefix(line, "\t") {
					// A symbol header: "hog/internal/netmodel.(*Flow).Remaining STEXT size=...".
					sym, _, text := strings.Cut(line, " STEXT ")
					fn = ""
					if text {
						fn = sym
					}
					headers = append(headers[max(0, len(headers)-19):], line)
					continue
				}
				if !strings.HasPrefix(fn, "hog/") && !strings.HasPrefix(fn, "main.") {
					continue
				}
				if m := asmLine.FindStringSubmatch(line); m != nil && fusedOp.MatchString(m[2]) {
					t.Errorf("%s: %s in %s", m[1], m[2], fn)
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("go build for %s: %v\n%s", arch, err, strings.Join(headers, "\n"))
			}
		})
	}
}

// TestFusedOpMnemonics pins fusedOp to the mnemonics each of fuseArchs
// prints for a fused multiply-add, and keeps it off the exact integer forms.
func TestFusedOpMnemonics(t *testing.T) {
	for _, op := range []string{"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD", "FMADDS", "FMADDF", "FMADD", "FNMSUB", "VFMLA", "WFMADB", "VFMSDB"} {
		if !fusedOp.MatchString(op) {
			t.Errorf("%s not matched", op)
		}
	}
	for _, op := range []string{"MADD", "MSUB", "MSUBW", "FMOVD", "FMULD", "FADDD", "FSUB", "FMAXD", "FMIND"} {
		if fusedOp.MatchString(op) {
			t.Errorf("%s matched", op)
		}
	}
}
