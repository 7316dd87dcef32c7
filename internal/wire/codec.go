package wire

// The float32 text codec every vector on the wire goes through. The format
// is JSON and the bytes are encoding/json's: the encoder spells a number
// exactly as json.Marshal spells a float32, the decoder accepts a strict
// subset of what encoding/json accepts and hands everything else to
// encoding/json itself, so there is one accepted language, one set of
// decoded bits and one set of error texts — encoding/json's — and this
// file is only the fast way through the common case. What it saves is
// reflection per element and encoding/json scanning bytes it does not
// parse: a 64×256 body is 16,384 numbers, and the numbers are the request.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
)

// Vector is one float32 vector on the wire: a JSON array of numbers.
// Assignable from and to []float32.
type Vector []float32

// Vectors is a list of vectors on the wire: a JSON array of arrays of
// numbers. Assignable from and to [][]float32.
type Vectors [][]float32

// MarshalJSON writes the bytes json.Marshal writes for the []float32.
func (v Vector) MarshalJSON() ([]byte, error) { return appendRow(nil, v) }

// MarshalJSON writes the bytes json.Marshal writes for the [][]float32.
func (v Vectors) MarshalJSON() ([]byte, error) { return appendRows(nil, v) }

// UnmarshalJSON reads what json.Unmarshal reads into a []float32.
func (v *Vector) UnmarshalJSON(b []byte) error {
	if row, next, ok := parseRow(nil, b, skipSpace(b, 0)); ok && skipSpace(b, next) == len(b) {
		*v = row
		return nil
	}
	return json.Unmarshal(b, (*[]float32)(v))
}

// UnmarshalJSON reads what json.Unmarshal reads into a [][]float32.
func (v *Vectors) UnmarshalJSON(b []byte) error {
	if rows, next, ok := parseRows(b, skipSpace(b, 0)); ok && skipSpace(b, next) == len(b) {
		*v = rows
		return nil
	}
	return json.Unmarshal(b, (*[][]float32)(v))
}

// AppendRunRequest appends req's JSON encoding to dst: byte for byte what
// json.Marshal(req) returns, without the reflection walk over the inputs
// or the validating copy json.Marshal makes of a Marshaler's output. A NaN
// or infinite input is an error, as it is to json.Marshal.
func AppendRunRequest(dst []byte, req *RunRequest) ([]byte, error) {
	shape, err := json.Marshal(&req.Shape)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `{"shape":`...)
	dst = append(dst, shape...)
	if len(req.Inputs) > 0 { // omitempty
		dst = append(dst, `,"inputs":`...)
		if dst, err = appendRows(dst, req.Inputs); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// DecodeRunRequest decodes a /v1/run body into req exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode(req) does, and reports
// whether it walked the envelope itself. It walks only the plain spelling —
// an object holding "shape" (a flat object, which encoding/json decodes)
// and "inputs" (arrays of plain JSON numbers), each at most once, in either
// order, nothing but whitespace around them. Anything else (escaped,
// odd-case, duplicate or unknown keys, nulls, trailing bytes, any number
// float32 cannot hold) it declines without touching req, and the whole body
// goes through encoding/json: what is accepted, what it decodes to and what
// an error says are encoding/json's by construction.
func DecodeRunRequest(body []byte, req *RunRequest) (walked bool, err error) {
	if walkRunRequest(body, req) {
		return true, nil
	}
	return false, json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

func walkRunRequest(b []byte, req *RunRequest) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	shape, inputs := req.Shape, req.Inputs
	var sawShape, sawInputs bool
	for first := true; ; first = false {
		if i = skipSpace(b, i+1); i == len(b) { // past the '{' or a ','
			return false
		}
		if first && b[i] == '}' {
			break
		}
		isShape := !sawShape && bytes.HasPrefix(b[i:], []byte(`"shape"`))
		switch {
		case isShape:
			sawShape = true
			i += len(`"shape"`)
		case !sawInputs && bytes.HasPrefix(b[i:], []byte(`"inputs"`)):
			sawInputs = true
			i += len(`"inputs"`)
		default:
			return false
		}
		if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		if isShape {
			end := flatObjectEnd(b, i)
			if end < 0 || json.Unmarshal(b[i:end], &shape) != nil {
				return false
			}
			i = end
		} else {
			var ok bool
			if inputs, i, ok = parseRows(b, i); !ok {
				return false
			}
		}
		if i = skipSpace(b, i); i == len(b) {
			return false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return false
		}
	}
	if skipSpace(b, i+1) != len(b) {
		return false
	}
	req.Shape, req.Inputs = shape, inputs
	return true
}

// flatObjectEnd returns the index just past the '}' closing the object that
// opens at b[i], or -1 when b[i] opens no object or the object nests another
// object or an array. When the bytes up to it are a valid object — which
// the caller learns from json.Unmarshal — it is where encoding/json ends
// the value too.
func flatObjectEnd(b []byte, i int) int {
	if i == len(b) || b[i] != '{' {
		return -1
	}
	inString := false
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == '}':
			return i + 1
		case c == '{' || c == '[':
			return -1
		}
	}
	return -1
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// parseRows parses the array of number arrays opening at b[i] and returns
// the index just past its ']'. It hops from ']' to ']' first, counting rows
// and commas, so the row table and the one array all rows are cut from are
// each allocated once at their size; a row's capacity ends where the next
// row begins, so appending to one never writes into another.
func parseRows(b []byte, i int) (rows [][]float32, next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return nil, 0, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return [][]float32{}, i + 1, true
	}
	nrows, nelems := countRows(b, i)
	rows = make([][]float32, 0, nrows)
	elems := make([]float32, 0, nelems)
	for {
		start := len(elems)
		if elems, i, ok = parseRow(elems, b, i); !ok {
			return nil, 0, false
		}
		rows = append(rows, elems[start:len(elems):len(elems)])
		if i = skipSpace(b, i); i == len(b) {
			return nil, 0, false
		}
		if b[i] == ']' {
			return rows, i + 1, true
		}
		if b[i] != ',' {
			return nil, 0, false
		}
		i = skipSpace(b, i+1)
	}
}

// countRows counts the rows of a well-formed row list whose first row opens
// at b[i] — one, and one more for every ']' a comma follows — and the
// elements in them, one more than its commas a row. On anything else the
// counts are only capacities, at most half the bytes between them.
func countRows(b []byte, i int) (rows, elems int) {
	for {
		end := bytes.IndexByte(b[i:], ']')
		if end < 0 {
			return rows + 1, elems + 1
		}
		rows++
		elems += bytes.Count(b[i:i+end], []byte{','}) + 1
		if i = skipSpace(b, i+end+1); i == len(b) || b[i] != ',' {
			return rows, elems
		}
		i++
	}
}

// parseRow parses the array of numbers opening at b[i] onto the end of
// dst — a nil dst is allocated at the size the row's commas give — and
// returns the index just past its ']'.
func parseRow(dst []float32, b []byte, i int) (row []float32, next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return nil, 0, false
	}
	n := bytes.IndexByte(b[i:], ']')
	if n < 0 {
		return nil, 0, false
	}
	end := i + n
	if dst == nil {
		dst = make([]float32, 0, bytes.Count(b[i:end], []byte{','})+1)
	}
	if i = skipSpace(b, i+1); i == end {
		return dst, end + 1, true
	}
	for {
		f, next, ok := parseNumber(b[:end], i)
		if !ok {
			return nil, 0, false
		}
		dst = append(dst, f)
		if i = skipSpace(b, next); i == end {
			return dst, end + 1, true
		}
		if b[i] != ',' {
			return nil, 0, false
		}
		i = skipSpace(b, i+1)
	}
}

// parseNumber parses the JSON number at b[i] to the float32 encoding/json
// decodes it to. The grammar is JSON's, checked here because ParseFloat's is
// wider (hex, underscores, "inf"); an integer of at most seven digits is
// exact in a float32 and converts directly, the rest goes to the call
// encoding/json makes, strconv.ParseFloat(tok, 32), whose range error
// declines the number.
func parseNumber(b []byte, i int) (f float32, next int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := i
	var n uint32
	switch {
	case i == len(b):
		return 0, 0, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			n = n*10 + uint32(b[i]-'0') // may wrap past seven digits, where it is not used
		}
	default:
		return 0, 0, false
	}
	integer := true
	if i < len(b) && b[i] == '.' {
		integer = false
		frac := i + 1
		for i = frac; i < len(b) && isDigit(b[i]); i++ {
		}
		if i == frac {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		for ; i < len(b) && isDigit(b[i]); i++ {
		}
		if i == exp {
			return 0, 0, false
		}
	}
	if integer && i-digits <= 7 {
		f = float32(n)
		if neg {
			f = -f // of a variable: -0 keeps its sign
		}
		return f, i, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 32)
	if err != nil {
		return 0, 0, false
	}
	return float32(v), i, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// appendRows appends the JSON of rows: null for a nil table and for a nil
// row, as encoding/json spells nil slices. After the first row the buffer
// is grown once to what the rest will need if they are as long as it was.
func appendRows(dst []byte, rows [][]float32) ([]byte, error) {
	if rows == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		start := len(dst)
		var err error
		if dst, err = appendRow(dst, row); err != nil {
			return dst, err
		}
		if i == 0 {
			dst = slices.Grow(dst, (len(rows)-1)*(len(dst)-start+1)+2)
		}
	}
	return append(dst, ']'), nil
}

func appendRow(dst []byte, row []float32) ([]byte, error) {
	if row == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendNumber(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendNumber appends f as encoding/json's float32 encoder spells it:
// ES6 number-to-string, shortest digits that round-trip, exponent form
// below 1e-6 and from 1e21 with "e-09" cleaned up to "e-9". An integer
// below 2^24 in magnitude is its own shortest spelling, so it skips the
// shortest-digit search; -0 does not, because the integer 0 has no sign.
func appendNumber(dst []byte, f float32) ([]byte, error) {
	if -1<<24 < f && f < 1<<24 {
		if n := int32(f); float32(n) == f && (n != 0 || !math.Signbit(float64(f))) {
			return strconv.AppendInt(dst, int64(n), 10), nil
		}
	}
	abs := f
	if abs < 0 {
		abs = -abs
	}
	if abs != abs || abs > math.MaxFloat32 {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(float64(f), 'g', -1, 32)}
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
