package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unsafe"
)

// Request decoding for the series-carrying endpoints (analyze, batch,
// stream append). A 4,000-point series is ~78 KB of JSON, and decoding it
// with encoding/json costs more than the cached analysis it feeds. The
// decoder reads the body once into a pooled buffer, parses the float
// arrays straight into exactly sized []float64 slices, and hands every
// other field to encoding/json in a small residual copy of the body in
// which those arrays are replaced by null. See DESIGN.md §12.
//
// Exactness: each element of such an array is checked against the JSON
// number grammar and converted in the same pass (scanFloat). The scan
// returns a float64 only when it is provably the correctly rounded value
// (Clinger's exact fast path or Eisel–Lemire); otherwise the literal goes
// to strconv.ParseFloat(s, 64), the call encoding/json makes for a
// float64. Either way every value is bit-identical to encoding/json's. An
// element that is not a number or null fails the request, as it fails
// encoding/json's decode (a type or syntax error). The residual keeps
// every other key and value, so field matching, duplicate keys, unknown
// fields and type errors stay encoding/json's. The one deliberate
// difference: a null element decodes as NaN (a missing value) where
// encoding/json leaves 0.

// maxPooledBytes bounds the buffers a decoder keeps between requests. A
// larger body is still read and decoded, but its buffer is dropped
// afterwards so one outsized request cannot pin its size in the pool.
const maxPooledBytes = 1 << 20

var decoderPool = sync.Pool{New: func() any { return new(requestDecoder) }}

// requestDecoder holds one request's decode state; it is pooled.
type requestDecoder struct {
	body     []byte
	residual []byte
	// arrays are the parsed float arrays in body order.
	arrays [][]float64
	// slots maps each destination field (the request's series or points,
	// or each batch item's series) to the index in arrays of the array
	// last assigned to it, or -1 when its last assignment, if any, was a
	// value left to encoding/json.
	slots []int
	src   bytes.Reader
	dec   *json.Decoder // reads src; reused while it has seen no error
}

// decodeBody reads body (at most limit bytes; size is the Content-Length,
// -1 when unknown) and decodes it into v, which must be *AnalyzeRequest,
// *BatchRequest or *StreamAppendRequest. A body over the limit yields an
// *http.MaxBytesError.
func decodeBody(body io.Reader, size, limit int64, v any) error {
	d := decoderPool.Get().(*requestDecoder)
	defer d.release()
	if err := d.read(body, size, limit); err != nil {
		return err
	}
	return d.decode(v)
}

// decodeRequest decodes r's body into v with the server's body cap and
// returns the status for a failure: 413 for an oversized body, else 400.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	err := decodeBody(body, r.ContentLength, s.cfg.MaxBodyBytes, v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// read fills d.body from r. A known size sizes the buffer up front, one
// byte over so the final Read that reports io.EOF finds room and the
// buffer never regrows; a chunked body grows it by doubling.
func (d *requestDecoder) read(r io.Reader, size, limit int64) error {
	if size > limit {
		return &http.MaxBytesError{Limit: limit}
	}
	buf := d.body[:0]
	if size >= int64(cap(buf)) {
		buf = make([]byte, 0, size+1)
	} else if cap(buf) == 0 {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			d.body = buf
			return err
		}
	}
	d.body = buf
	return nil
}

// release resets d and returns it to the pool.
func (d *requestDecoder) release() {
	d.reset()
	decoderPool.Put(d)
}

// reset drops the references the decode handed to the caller and any
// buffer over maxPooledBytes.
func (d *requestDecoder) reset() {
	clear(d.arrays)
	d.arrays = d.arrays[:0]
	d.slots = d.slots[:0]
	if cap(d.body) > maxPooledBytes {
		d.body = nil
	}
	if cap(d.residual) > maxPooledBytes {
		// The json.Decoder's own buffer grew to the residual's size.
		d.residual, d.dec = nil, nil
	}
	d.src.Reset(nil)
}

// decode decodes d.body into v.
func (d *requestDecoder) decode(v any) error {
	var err error
	switch v.(type) {
	case *AnalyzeRequest:
		err = d.walk("series", false)
	case *BatchRequest:
		err = d.walk("requests", true)
	case *StreamAppendRequest:
		err = d.walk("points", false)
	default:
		panic(fmt.Sprintf("server: decode into unsupported type %T", v))
	}
	if err != nil {
		return err
	}
	d.src.Reset(d.residual)
	if d.dec == nil {
		d.dec = json.NewDecoder(&d.src)
	}
	if err := d.dec.Decode(v); err != nil {
		// A json.Decoder keeps read errors and unread input; start the
		// next request on a fresh one.
		d.dec = nil
		return err
	}
	switch v := v.(type) {
	case *AnalyzeRequest:
		if k := d.slots[0]; k >= 0 {
			v.Series = d.arrays[k]
		}
	case *BatchRequest:
		for i := range v.Requests {
			if i < len(d.slots) && d.slots[i] >= 0 {
				v.Requests[i].Series = d.arrays[d.slots[i]]
			}
		}
	case *StreamAppendRequest:
		if k := d.slots[0]; k >= 0 {
			v.Points = d.arrays[k]
		}
	}
	return nil
}

// walk scans the body's first JSON value and builds the residual. field
// is the top-level key holding the float array (series, points), or, for a
// batch, the key holding the array of items whose "series" it parses.
// Bytes after the first value are ignored, as json.Decoder ignores them.
func (d *requestDecoder) walk(field string, batch bool) error {
	b := d.body
	d.residual = d.residual[:0]
	if !batch {
		d.slots = append(d.slots, -1)
	}
	i := skipWS(b, 0)
	if i == len(b) {
		return nil // empty residual: json.Decoder reports io.EOF
	}
	copied := i
	var err error
	if b[i] != '{' {
		// Not an object: nothing to parse here; encoding/json decides.
		i, err = skipValue(b, i)
	} else {
		i, err = d.object(b, i, func(key []byte, i int) (int, error) {
			switch {
			case !keyIs(key, field):
				return skipValue(b, i)
			case batch:
				return d.items(b, i, &copied)
			default:
				return d.floats(b, i, field, 0, &copied)
			}
		})
	}
	if err != nil {
		return err
	}
	d.residual = append(d.residual, b[copied:i]...)
	return nil
}

// items walks a batch's request array at b[i], parsing each item's series.
// It mirrors how encoding/json fills the Requests slice: a null or empty
// array resets it, and a later array decodes item k into the same element
// as before, so an item that names no series keeps the earlier one.
func (d *requestDecoder) items(b []byte, i int, copied *int) (int, error) {
	if b[i] != '[' {
		if b[i] == 'n' {
			d.slots = d.slots[:0] // null sets Requests to nil
		}
		return skipValue(b, i)
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == ']' {
		d.slots = d.slots[:0] // [] makes a new empty slice
		return i + 1, nil
	}
	for k := 0; ; k++ {
		var err error
		if i < len(b) && b[i] == '{' {
			for len(d.slots) <= k {
				d.slots = append(d.slots, -1)
			}
			i, err = d.object(b, i, func(key []byte, i int) (int, error) {
				if !keyIs(key, "series") {
					return skipValue(b, i)
				}
				return d.floats(b, i, "series", k, copied)
			})
		} else {
			i, err = skipValue(b, i)
		}
		if err != nil {
			return i, err
		}
		i = skipWS(b, i)
		switch {
		case i == len(b):
			return i, io.ErrUnexpectedEOF
		case b[i] == ']':
			return i + 1, nil
		case b[i] != ',':
			return i, syntaxError(b, i, "after array element")
		}
		i = skipWS(b, i+1)
	}
}

// object walks the object at b[i] ('{'), calling member with each key and
// the offset of its value; member returns the offset just past the value.
func (d *requestDecoder) object(b []byte, i int, member func(key []byte, i int) (int, error)) (int, error) {
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, nil
	}
	for {
		if i == len(b) {
			return i, io.ErrUnexpectedEOF
		}
		if b[i] != '"' {
			return i, syntaxError(b, i, "looking for beginning of object key string")
		}
		start := i
		var err error
		if i, err = skipString(b, i); err != nil {
			return i, err
		}
		key := b[start:i]
		if i = skipWS(b, i); i == len(b) {
			return i, io.ErrUnexpectedEOF
		}
		if b[i] != ':' {
			return i, syntaxError(b, i, "after object key")
		}
		if i = skipWS(b, i+1); i == len(b) {
			return i, io.ErrUnexpectedEOF
		}
		if i, err = member(key, i); err != nil {
			return i, err
		}
		i = skipWS(b, i)
		switch {
		case i == len(b):
			return i, io.ErrUnexpectedEOF
		case b[i] == '}':
			return i + 1, nil
		case b[i] != ',':
			return i, syntaxError(b, i, "after object key:value pair")
		}
		i = skipWS(b, i+1)
	}
}

// floats handles the value at b[i] of a float-array field: destination
// slot k. An array is parsed into d.arrays and replaced by null in the
// residual; any other value is skipped and left to encoding/json.
func (d *requestDecoder) floats(b []byte, i int, field string, k int, copied *int) (int, error) {
	if b[i] != '[' {
		d.slots[k] = -1
		return skipValue(b, i)
	}
	vals, end, err := parseFloats(b, i, field)
	if err != nil {
		return end, err
	}
	d.slots[k] = len(d.arrays)
	d.arrays = append(d.arrays, vals)
	d.residual = append(d.residual, b[*copied:i]...)
	d.residual = append(d.residual, "null"...)
	*copied = end
	return end, nil
}

// parseFloats parses the array at b[i] ('['), whose elements must be JSON
// numbers or nulls (null decodes as NaN); any other element is an error,
// as it is a type or syntax error for encoding/json.
func parseFloats(b []byte, i int, field string) (vals []float64, end int, err error) {
	// An array of numbers ends at the first ']'. Cutting b there leaves a
	// sentinel every scan below stops at, so none of them bounds-checks.
	j := bytes.IndexByte(b[i:], ']')
	if j < 0 {
		return nil, len(b), io.ErrUnexpectedEOF
	}
	b = b[:i+j+1]
	p := skipWS(b, i+1)
	if b[p] == ']' {
		return []float64{}, p + 1, nil
	}
	// In a valid array every comma separates two elements of at least one
	// byte each, so the comma count sizes vals exactly; a count the bytes
	// cannot hold is malformed, which also bounds the allocation.
	n := bytes.Count(b[p:], []byte{','}) + 1
	if 2*n-1 > len(b)-1-p {
		return nil, p, fmt.Errorf("%s: malformed array of %d commas in %d bytes", field, n-1, len(b)-1-p)
	}
	vals = make([]float64, n)
	pow := powersOfTen()
	for k := range vals {
		if k > 0 {
			if b[p] != ',' {
				return nil, p, syntaxError(b, p, "after array element")
			}
			p = skipWS(b, p+1)
		}
		q := p
		if b[p] == 'n' && bytes.HasPrefix(b[p:], []byte("null")) {
			vals[k], q = math.NaN(), p+4
		} else {
			var ok, exact bool
			if vals[k], q, ok, exact = scanFloat(b, p, pow); !ok {
				if q == p {
					return nil, p, fmt.Errorf("%s[%d]: found %q where a number or null belongs", field, k, b[p])
				}
				return nil, p, fmt.Errorf("%s[%d]: invalid number literal %q", field, k, b[p:q+1])
			}
			// The rare literal the scan cannot round is viewed in place,
			// not copied; the error copies it, so nothing refers to the
			// pooled body once the decode returns.
			if !exact {
				if vals[k], err = strconv.ParseFloat(unsafe.String(&b[p], q-p), 64); err != nil {
					return nil, p, fmt.Errorf("%s[%d]: number %q: %w", field, k, b[p:q], err.(*strconv.NumError).Err)
				}
			}
		}
		p = skipWS(b, q)
	}
	if b[p] != ']' {
		return nil, p, syntaxError(b, p, "after array element")
	}
	return vals, p + 1, nil
}

// scanFloat scans and converts the JSON number at b[i] in one pass. The
// number must match -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and be
// followed by whitespace, ',' or ']'; ok reports whether it does, and on
// failure end is the offending byte. b must end in ']' (parseFloats'
// sentinel), so no scan bounds-checks.
//
// The conversion keeps up to 19 significant digits in a uint64 and tries
// Clinger's exact fast path, then Eisel–Lemire (float.go). exact is false
// when neither can round correctly: a nonzero digit past the 19th, a
// halfway case, or a result outside the normal float64 range. The caller
// then converts the literal with strconv.ParseFloat.
//
//gvad:noalloc
func scanFloat(b []byte, i int, pow *pow10Table) (f float64, end int, ok, exact bool) {
	neg := b[i] == '-'
	if neg {
		i++
	}
	var (
		mant  uint64
		nd    int  // significant digits in mant
		e10   int  // the value is mant·10^e10
		trunc bool // a nonzero digit was dropped
	)
	switch {
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for ; isDigit(b[i]); i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				e10++
				trunc = trunc || b[i] != '0'
			}
		}
	default:
		return 0, i, false, false
	}
	if b[i] == '.' {
		i++
		if !isDigit(b[i]) {
			return 0, i, false, false
		}
		for ; isDigit(b[i]); i++ {
			switch {
			case nd == 0 && b[i] == '0':
				e10-- // a leading zero only moves the point
			case nd < 19:
				mant = mant*10 + uint64(b[i]-'0')
				nd++
				e10--
			default:
				trunc = trunc || b[i] != '0'
			}
		}
	}
	if b[i] == 'e' || b[i] == 'E' {
		i++
		eneg := b[i] == '-'
		if b[i] == '+' || b[i] == '-' {
			i++
		}
		if !isDigit(b[i]) {
			return 0, i, false, false
		}
		// The exponent saturates where strconv's does, so e10 cannot
		// overflow and mant·10^e10 is the value strconv rounds, even for
		// a literal with thousands of digits before the exponent.
		x := 0
		for ; isDigit(b[i]); i++ {
			if x < 10000 {
				x = x*10 + int(b[i]-'0')
			}
		}
		if eneg {
			x = -x
		}
		e10 += x
	}
	switch b[i] {
	case ' ', '\t', '\r', '\n', ',', ']':
	default:
		return 0, i, false, false
	}
	switch {
	case trunc:
		return 0, i, true, false
	case mant == 0:
		if neg {
			return math.Copysign(0, -1), i, true, true
		}
		return 0, i, true, true
	}
	if f, exact = clinger(mant, e10, neg); !exact {
		f, exact = eiselLemire(mant, e10, neg, pow)
	}
	return f, i, true, exact
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// skipString returns the offset just past the string at b[i] ('"').
// Its content is validated by encoding/json, which sees it in the residual.
func skipString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return len(b), io.ErrUnexpectedEOF
}

// skipValue returns the offset just past the JSON value at b[i]. It only
// finds the value's extent: the value lands in the residual verbatim, and
// encoding/json validates it there.
func skipValue(b []byte, i int) (int, error) {
	depth := 0
	for i < len(b) {
		switch b[i] {
		case '"':
			var err error
			if i, err = skipString(b, i); err != nil {
				return i, err
			}
		case '{', '[':
			depth++
			i++
			continue
		case '}', ']':
			if depth == 0 {
				return i, syntaxError(b, i, "looking for beginning of value")
			}
			depth--
			i++
		case ' ', '\t', '\r', '\n', ',', ':':
			if depth == 0 {
				return i, syntaxError(b, i, "looking for beginning of value")
			}
			i++
			continue
		default:
			if depth == 0 {
				// A literal or number: it runs to the next delimiter.
				j := i
				for j < len(b) && !isDelim(b[j]) {
					j++
				}
				return j, nil
			}
			i++
			continue
		}
		if depth == 0 {
			return i, nil
		}
	}
	return i, io.ErrUnexpectedEOF
}

func isDelim(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', ',', ':', '{', '}', '[', ']', '"':
		return true
	}
	return false
}

// keyIs reports whether the quoted object key raw names target under
// encoding/json's matching rule (bytes.EqualFold on the unescaped key).
func keyIs(raw []byte, target string) bool {
	key := raw[1 : len(raw)-1]
	if bytes.IndexByte(key, '\\') >= 0 {
		var s string
		if json.Unmarshal(raw, &s) != nil {
			return false // invalid escape: encoding/json rejects the residual
		}
		key = []byte(s)
	}
	return bytes.EqualFold(key, []byte(target))
}

// syntaxError describes malformed JSON at b[i]; the byte is copied into
// the message, never referenced.
func syntaxError(b []byte, i int, context string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", b[i], context, i)
}
