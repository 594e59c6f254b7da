package estgen

import (
	"os"
	"strings"
	"testing"

	"xmovie/internal/estelle/estparse"
)

func generateSpecFile(t *testing.T, specPath, pkg string) []byte {
	t.Helper()
	src, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := estparse.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(spec, Options{Package: pkg})
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestGeneratedFilesInSync regenerates from the committed specifications and
// compares against the committed generated sources, so the spec -> Go path
// can never silently drift.
func TestGeneratedFilesInSync(t *testing.T) {
	tests := []struct {
		spec string
		pkg  string
		out  string
	}{
		{"../../../specs/pingpong.est", "pingpong", "../../gen/pingpong/pingpong_gen.go"},
		{"../../../specs/abp.est", "abp", "../../gen/abp/abp_gen.go"},
	}
	for _, tt := range tests {
		t.Run(tt.pkg, func(t *testing.T) {
			want, err := os.ReadFile(tt.out)
			if err != nil {
				t.Fatal(err)
			}
			got := generateSpecFile(t, tt.spec, tt.pkg)
			if string(got) != string(want) {
				t.Errorf("%s is stale; regenerate with:\n  go run ./cmd/estgen -pkg %s -o %s %s",
					tt.out, tt.pkg, tt.out, tt.spec)
			}
		})
	}
}

func TestGeneratedCodeShape(t *testing.T) {
	code := string(generateSpecFile(t, "../../../specs/pingpong.est", "pingpong"))
	for _, want := range []string{
		"Code generated by estgen from specification PingPong",
		"var PingChannelChannel = &estelle.ChannelDef{",
		"func PingerBodyDef() *estelle.ModuleDef {",
		"func PongerBodyDef() *estelle.ModuleDef {",
		"func BuildPingPong(rt *estelle.Runtime",
		`When: estelle.On("P", "Pong")`,
		`ctx.Output("P", "Ping", int64(0))`,
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code lacks %q", want)
		}
	}
}

func TestGenerateTypeErrors(t *testing.T) {
	tests := []struct {
		name string
		body string
		want string
	}{
		{"provided not boolean", "trans from S1 provided x begin end;", "not boolean"},
		{"mixed operands", "trans from S1 provided x = b1 begin end;", "mixes"},
		{"compare booleans", `trans
			from S1 provided true begin b1 := not (b1 and b1); x := -x; s1 := s1 + "a"; end;
			from S1 begin x := x - 1 end;
			from S1 begin b1 := b1 < b1 end;`, "< on boolean"},
		{"undeclared assign", "trans from S1 begin zz := 1 end;", "undeclared"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := `specification T;
			module M systemprocess; end;
			body B for M;
			  state S1;
			  var x: integer; b1: boolean; s1: octetstring;
			  ` + tt.body + `
			end;
			end.`
			spec, err := estparse.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Generate(spec, Options{Package: "t"})
			if err == nil {
				t.Fatal("Generate accepted bad spec")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %q, want substring %q", err, tt.want)
			}
		})
	}
}

func TestGeneratedIsGofmtClean(t *testing.T) {
	// format.Source inside Generate guarantees this; the test guards the
	// guarantee.
	code := generateSpecFile(t, "../../../specs/abp.est", "abp")
	if strings.Contains(string(code), "\t\t\t\t\t\t\t\t\t\t") {
		t.Error("suspicious deep indentation; formatting failed")
	}
}
