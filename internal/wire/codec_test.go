package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plan"
)

// plainRunRequest is RunRequest as it was before the codec: plain slices,
// so encoding/json's reflection encoder and decoder do all the work. Every
// test here holds the codec to it.
type plainRunRequest struct {
	Shape  Shape       `json:"shape"`
	Inputs [][]float32 `json:"inputs,omitempty"`
}

// floatClasses is one of every kind of float32 the encoder treats
// differently: both zeros, subnormals, the integer fast path and its
// edges, the two exponent-format switches from both sides, the extremes.
func floatClasses() []float32 {
	fs := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, -0.25, 3.1415927, 1.0000001, 100, 1e6, 1e7, 123456789,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1.1754942e-38, 1.17549435e-38,
		math.MaxFloat32, -math.MaxFloat32,
		1<<24 - 1, 1 << 24, 1<<24 + 2, -(1<<24 - 1), -(1 << 24), 1 << 31, -(1 << 31), 1 << 40,
		9.999999e-7, 1e-6, 1.0000001e-6, 1e-7, 1.5e-9, 1e-10,
		9.999999e20, 1e21, 1.0000001e21, 1e22, 1e30,
	}
	for _, f := range []float32{1e-6, 1e21, 1 << 24} {
		fs = append(fs, math.Nextafter32(f, 0), math.Nextafter32(f, math.MaxFloat32), -math.Nextafter32(f, 0))
	}
	return fs
}

// randomFloats is n float32 bit patterns, NaN and the infinities removed.
func randomFloats(rng *rand.Rand, n int) []float32 {
	fs := make([]float32, 0, n)
	for len(fs) < n {
		if f := math.Float32frombits(rng.Uint32()); f == f && !math.IsInf(float64(f), 0) {
			fs = append(fs, f)
		}
	}
	return fs
}

// TestEncodeMatchesEncodingJSON: AppendRunRequest and the Vector types'
// MarshalJSON write what json.Marshal writes for plain slices, byte for byte.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ints := make([]float32, 2000)
	for i := range ints {
		ints[i] = float32(rng.Intn(1<<25) - 1<<24)
	}
	sh := Shape{Kind: "allreduce1d", Alg: "<auto&>", P: 4, B: 3, Op: "sum"}
	for name, rows := range map[string][][]float32{
		"classes":    {floatClasses()},
		"random":     {randomFloats(rng, 25000), randomFloats(rng, 25000)},
		"integers":   {ints},
		"ragged":     {{1, 2, 3}, {}, nil, {4}},
		"one nil":    {nil},
		"empty":      {},
		"nil":        nil,
		"long first": {randomFloats(rng, 64), {1}, {2}},
		"short first": append([][]float32{{1}}, randomFloats(rng, 64), randomFloats(rng, 64),
			randomFloats(rng, 64)),
	} {
		want, err := json.Marshal(plainRunRequest{Shape: sh, Inputs: rows})
		if err != nil {
			t.Fatal(err)
		}
		req := RunRequest{Shape: sh, Inputs: rows}
		got, err := AppendRunRequest([]byte("prefix"), &req)
		if err != nil || string(got) != "prefix"+string(want) {
			t.Errorf("%s: AppendRunRequest = %.200s, %v; json.Marshal writes %.200s", name, got, err, want)
		}
		if got, err := json.Marshal(req); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: json.Marshal(RunRequest) = %.200s, %v; plain slices write %.200s", name, got, err, want)
		}
		want, _ = json.Marshal(rows)
		if got, err := json.Marshal(Vectors(rows)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: Vectors marshal to %.200s, %v; want %.200s", name, got, err, want)
		}
		for _, row := range rows {
			want, _ = json.Marshal(row)
			if got, err := json.Marshal(Vector(row)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: Vector marshals to %.200s, %v; want %.200s", name, got, err, want)
			}
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		_, want := json.Marshal([]float32{1, bad})
		_, err := AppendRunRequest(nil, &RunRequest{Shape: sh, Inputs: Vectors{{1, bad}}})
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) || err.Error() != want.Error() {
			t.Errorf("AppendRunRequest of %v: %v, want json.Marshal's %v", bad, err, want)
		}
		if _, err := json.Marshal(Report{Root: Vector{bad}}); err == nil {
			t.Errorf("a report holding %v marshalled", bad)
		}
	}
}

// sameRows holds got to want: the same table, nil where want is nil, the
// same bits in every element.
func sameRows(got, want [][]float32) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("table %v, want %v", got, want)
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d is %#v, want %#v", i, got[i], want[i])
		}
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				return fmt.Errorf("row %d element %d is %v (%#x), want %v (%#x)", i, j,
					got[i][j], math.Float32bits(got[i][j]), want[i][j], math.Float32bits(want[i][j]))
			}
		}
	}
	return nil
}

// checkRunRequestDecode is the differential property of DecodeRunRequest:
// on any bytes it accepts what encoding/json's decoder accepts into the
// plain struct, decodes to the same shape and the same bits, and what it
// decoded re-encodes to what json.Marshal writes. A malformed body fails with
// the same text; one that is well-formed JSON of the wrong types fails with
// an encoding/json type error too, but of a body with several it may name a
// later one (an error from inside the inputs ends the decode, one from the
// shape is only remembered), and it names the struct, which is not this one.
func checkRunRequestDecode(t *testing.T, body []byte) (walked bool) {
	t.Helper()
	var got RunRequest
	walked, gotErr := DecodeRunRequest(body, &got)
	var want plainRunRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeRunRequest(%q) = %v, encoding/json says %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		var typeErr *json.UnmarshalTypeError
		if !errors.As(wantErr, &typeErr) && gotErr.Error() != wantErr.Error() {
			t.Fatalf("DecodeRunRequest(%q) = %q; encoding/json says %q", body, gotErr, wantErr)
		}
		return walked
	}
	if got.Shape != want.Shape {
		t.Fatalf("DecodeRunRequest(%q) shape %+v, want %+v", body, got.Shape, want.Shape)
	}
	if err := sameRows(got.Inputs, want.Inputs); err != nil {
		t.Fatalf("DecodeRunRequest(%q): %v", body, err)
	}
	again, err := AppendRunRequest(nil, &got)
	if ref, _ := json.Marshal(want); err != nil || !bytes.Equal(again, ref) {
		t.Fatalf("DecodeRunRequest(%q) re-encodes to %q, %v; want %q", body, again, err, ref)
	}
	return walked
}

func checkVectorsDecode(t *testing.T, b []byte) {
	t.Helper()
	got := Vectors{}
	gotErr := got.UnmarshalJSON(b)
	want := [][]float32{}
	wantErr := json.Unmarshal(b, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Vectors.UnmarshalJSON(%q) = %v, encoding/json says %v", b, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if err := sameRows(got, want); err != nil {
		t.Fatalf("Vectors.UnmarshalJSON(%q): %v", b, err)
	}
	again, err := got.MarshalJSON()
	if ref, _ := json.Marshal(want); err != nil || !bytes.Equal(again, ref) {
		t.Fatalf("Vectors.UnmarshalJSON(%q) re-encodes to %q, %v; want %q", b, again, err, ref)
	}
	if len(want) > 0 { // the single-row codec on the first row's own bytes
		row, _ := json.Marshal(want[0])
		var v Vector
		if err := v.UnmarshalJSON(row); err != nil || sameRows([][]float32{v}, want[:1]) != nil {
			t.Fatalf("Vector.UnmarshalJSON(%q) = %v, %v; want %v", row, v, err, want[0])
		}
	}
}

const shapeJSON = `{"kind":"reduce1d","alg":"chain","p":2,"b":2,"op":"sum"}`

// walkedBodies must take the fast walk; delegatedBodies must not, whether
// encoding/json then accepts them or not. Both seed the fuzzers.
var walkedBodies = []string{
	`{"shape":` + shapeJSON + `,"inputs":[[1,2],[3,4]]}`,
	`{"inputs":[[1,2],[3,4]],"shape":` + shapeJSON + `}`,
	`{"shape":` + shapeJSON + `}`,
	`{"inputs":[[1]]}`,
	`{}`,
	" {\n\t\"shape\" : " + shapeJSON + " ,\r\n \"inputs\" : [ [ 1 , 2 ] , [ ] , [ -0 ] ] } \n",
	`{"shape":{"kind":"a}b\"]","p":1},"inputs":[]}`,
	`{"shape":{"kind":"x","kind":"y","unknown":true,"P":7},"inputs":[[0]]}`,
	`{"inputs":[[-0,0,-0.0,1e-400,-1e-400,1E2,1e+2,0.1e1,16777215,16777216,16777217,9999999,10000000,-9999999]]}`,
	`{"inputs":[[3.4028235e38,3.4028235677973366e38,1.401298464324817e-45,7e-46,1.17549435e-38,0.30000001192092896]]}`,
}

var delegatedBodies = []string{
	`{"Inputs":[[1,2]],"shape":` + shapeJSON + `}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1]],"inputs":[[2]]}`,
	`{"shape":` + shapeJSON + `,"shape":{"p":9}}`,
	`{"shape":` + shapeJSON + `,"extra":1}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1]]} trailing garbage`,
	`{"shape":` + shapeJSON + `,"inputs":[[1]]}{"shape":{}}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1e40]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[3.4028236e38]]}`,
	`{"shape":` + shapeJSON + `,"inputs":null}`,
	`{"shape":` + shapeJSON + `,"inputs":[null,[1]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1,null]]}`,
	`{"shape":null,"inputs":[[1]]}`,
	`{"shape":{"kind":"x","nested":{"a":[1]}},"inputs":[[1]]}`,
	`{"shape":{"p":"four"},"inputs":[[1]]}`,
	`{"shape":{"p":1,},"inputs":[[1]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1,]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1],]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[01]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1.]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[.5]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[+1]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1e]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[-]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[0x10]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1_0]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[Inf]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[NaN]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[["1"]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[[1]]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[1,2]}`,
	`{"shape":` + shapeJSON + `,"inputs":"no"}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1 2]]}`,
	`{"shape":` + shapeJSON + ` "inputs":[[1]]}`,
	`{"shape":` + shapeJSON + `,"inputs":[[1]]`,
	`{"shape":` + shapeJSON + `,"inputs":[[1]`,
	`{"shape":`,
	`{,}`,
	`[]`,
	`null`,
	``,
	"\ufeff{}",
}

// kindBodies is the canonical /v1/run body of every row of the kind table.
func kindBodies(t testing.TB) []string {
	var out []string
	for i := range plan.Kinds {
		r := plan.Request{Kind: plan.Kinds[i].Kind, P: 4, Width: 2, Height: 2, B: 8}
		x := float32(0)
		inputs := r.Inputs(func(n int) []float32 {
			v := make([]float32, n)
			for j := range v {
				x += 0.75
				v[j] = x
			}
			return v
		})
		body, err := AppendRunRequest(nil, &RunRequest{
			Shape:  Shape{Kind: string(r.Kind), P: r.P, Width: r.Width, Height: r.Height, B: r.B},
			Inputs: inputs,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(body))
	}
	return out
}

// TestDecodeMatchesEncodingJSON runs the fuzzers' property over their seeds
// and pins which spellings walk: a canonical client must not fall off the
// fast path unnoticed, and the walk must not widen by accident.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range append(kindBodies(t), walkedBodies...) {
		if !checkRunRequestDecode(t, []byte(body)) {
			t.Errorf("%s: delegated, want the walk", body)
		}
	}
	for _, body := range delegatedBodies {
		if checkRunRequestDecode(t, []byte(body)) {
			t.Errorf("%s: walked, want it delegated", body)
		}
	}
	for _, b := range vectorSeeds() {
		checkVectorsDecode(t, []byte(b))
	}

	// A decline leaves req alone and encoding/json merges into it; a walk
	// merges the same way.
	for _, body := range []string{`{"shape":{"p":9}}`, `{"Shape":{"p":9}}`} {
		req := RunRequest{Shape: Shape{Kind: "reduce1d", P: 4, B: 2}, Inputs: Vectors{{1, 2}}}
		if _, err := DecodeRunRequest([]byte(body), &req); err != nil || req.Shape != (Shape{Kind: "reduce1d", P: 9, B: 2}) || len(req.Inputs) != 1 {
			t.Errorf("%s into a filled request = %+v, %v", body, req, err)
		}
	}

	// Every float32 survives text and back, whichever path reads it.
	rng := rand.New(rand.NewSource(2))
	rows := [][]float32{floatClasses(), randomFloats(rng, 10000)}
	body, err := AppendRunRequest(nil, &RunRequest{Inputs: rows})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{body, bytes.Replace(body, []byte("inputs"), []byte("Inputs"), 1)} {
		var req RunRequest
		if _, err := DecodeRunRequest(b, &req); err != nil || sameRows(req.Inputs, rows) != nil {
			t.Errorf("round trip of %.40s…: %v, %v", b, err, sameRows(req.Inputs, rows))
		}
	}
}

func vectorSeeds() []string {
	seeds := []string{`null`, `[]`, `[[]]`, ` [ [ 1 , 2 ] , [ ] ] `, `[null,[1]]`, `[[1,null]]`, `[[1e40]]`, `[[-0]]`,
		`[[1]] x`, `[[1],`, `[1]`, `"s"`, `{}`, ``, `[[1.5e-7,1e21,16777217]]`}
	for _, body := range append(walkedBodies, delegatedBodies...) {
		if _, rows, ok := strings.Cut(body, `"inputs":`); ok {
			seeds = append(seeds, strings.TrimSuffix(rows, "}"))
		}
	}
	return seeds
}

func FuzzRunRequestDecode(f *testing.F) {
	for _, body := range append(append(kindBodies(f), walkedBodies...), delegatedBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkRunRequestDecode(t, body) })
}

func FuzzVectorJSON(f *testing.F) {
	for _, b := range vectorSeeds() {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkVectorsDecode(t, b) })
}

// TestRunRequestDecodeAllocs: walking the P=64 B=256 body allocates the
// rows, the row table and what encoding/json needs for the ~40-byte shape —
// nothing per element, nothing that doubles.
func TestRunRequestDecodeAllocs(t *testing.T) {
	const p, b = 64, 256
	body := benchBody(p, b, false)
	var req RunRequest
	allocs := testing.AllocsPerRun(20, func() {
		req = RunRequest{}
		if walked, err := DecodeRunRequest(body, &req); err != nil || !walked {
			t.Fatalf("walked %v, %v", walked, err)
		}
	})
	if allocs > p+4 {
		t.Errorf("decoding %d rows took %.0f allocations, want at most %d", p, allocs, p+4)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		DecodeRunRequest(body, &RunRequest{})
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(11*4*p*b/10); got > limit {
		t.Errorf("decoding %d×%d float32 allocated %d bytes, want at most %d", p, b, got, limit)
	}
}

// benchBody is the /v1/run body of a P×B allreduce: integer-valued inputs
// (what the repository's benchmark sends) or full-precision ones.
func benchBody(p, b int, fullPrecision bool) []byte {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float32, p)
	for i := range rows {
		rows[i] = make([]float32, b)
		for j := range rows[i] {
			if fullPrecision {
				rows[i][j] = rng.Float32()*2 - 1
			} else {
				rows[i][j] = float32(rng.Intn(17) - 8)
			}
		}
	}
	body, err := json.Marshal(plainRunRequest{Shape: Shape{Kind: "allreduce1d", P: p, B: b}, Inputs: rows})
	if err != nil {
		panic(err)
	}
	return body
}

// BenchmarkRunRequestCodec times the request body both ways through this
// codec and through encoding/json on plain slices (what the wire types were).
func BenchmarkRunRequestCodec(b *testing.B) {
	for _, size := range []struct{ p, b int }{{64, 256}, {512, 256}} {
		for _, full := range []bool{false, true} {
			body := benchBody(size.p, size.b, full)
			var plain plainRunRequest
			if err := json.Unmarshal(body, &plain); err != nil {
				b.Fatal(err)
			}
			req := RunRequest{Shape: plain.Shape, Inputs: plain.Inputs}
			values := "integer"
			if full {
				values = "fullprecision"
			}
			run := func(op, codec string, f func() error) {
				b.Run(fmt.Sprintf("P=%d/B=%d/%s/%s/%s", size.p, size.b, values, op, codec), func(b *testing.B) {
					b.SetBytes(int64(len(body)))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := f(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			run("append", "wire", func() error { _, err := AppendRunRequest(nil, &req); return err })
			run("append", "encoding-json", func() error { _, err := json.Marshal(&plain); return err })
			run("decode", "wire", func() error { _, err := DecodeRunRequest(body, &RunRequest{}); return err })
			run("decode", "encoding-json", func() error {
				return json.NewDecoder(bytes.NewReader(body)).Decode(&plainRunRequest{})
			})
		}
	}
}
