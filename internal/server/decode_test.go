package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"grammarviz"
)

// stdlibDecode is the whole-body encoding/json decode the series-carrying
// handlers used before decodeBody: the differential oracle and the
// benchmark baseline.
func stdlibDecode(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// sameFloats compares two decoded float arrays bit for bit, except that a
// NaN in got (a null element) may stand for any value in want: encoding/json
// leaves a null element at 0, or at the value an earlier duplicate key put
// in that slot.
func sameFloats(field string, got, want []float64) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("%s: got %v, want %v", field, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !math.IsNaN(got[i]) {
			return fmt.Errorf("%s[%d]: got %v (%#x), want %v (%#x)",
				field, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

func sameAnalyze(got, want AnalyzeRequest) error {
	if err := sameFloats("series", got.Series, want.Series); err != nil {
		return err
	}
	got.Series, want.Series = nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// decodeBoth decodes body as shape (0 analyze, 1 batch, 2 append) with the
// server's decoder and with the oracle and reports any difference.
// sized selects whether the server decoder is told the body's length.
func decodeBoth(body []byte, shape int, sized bool) error {
	size := int64(-1)
	if sized {
		size = int64(len(body))
	}
	var got, want any
	switch shape {
	case 0:
		got, want = new(AnalyzeRequest), new(AnalyzeRequest)
	case 1:
		got, want = new(BatchRequest), new(BatchRequest)
	default:
		got, want = new(StreamAppendRequest), new(StreamAppendRequest)
	}
	gotErr := decodeBody(bytes.NewReader(body), size, 1<<20, got)
	wantErr := stdlibDecode(body, want)
	switch {
	case gotErr != nil && wantErr != nil:
		return nil
	case gotErr != nil || wantErr != nil:
		return fmt.Errorf("server err %v, stdlib err %v", gotErr, wantErr)
	}
	switch shape {
	case 0:
		return sameAnalyze(*got.(*AnalyzeRequest), *want.(*AnalyzeRequest))
	case 1:
		got, want := got.(*BatchRequest), want.(*BatchRequest)
		if (got.Requests == nil) != (want.Requests == nil) || len(got.Requests) != len(want.Requests) ||
			got.Tenant != want.Tenant {
			return fmt.Errorf("got %+v, want %+v", got, want)
		}
		for i := range got.Requests {
			if err := sameAnalyze(got.Requests[i], want.Requests[i]); err != nil {
				return fmt.Errorf("requests[%d]: %w", i, err)
			}
		}
		return nil
	default:
		got, want := got.(*StreamAppendRequest), want.(*StreamAppendRequest)
		if err := sameFloats("points", got.Points, want.Points); err != nil {
			return err
		}
		if !reflect.DeepEqual(got.Offset, want.Offset) {
			return fmt.Errorf("offset: got %v, want %v", got.Offset, want.Offset)
		}
		return nil
	}
}

// decodeSeeds are bodies per shape (0 analyze, 1 batch, 2 append) that
// pin encoding/json's field matching and the number grammar.
var decodeSeeds = []struct {
	shape int
	body  string
}{
	{0, `{"series":[1,2.5,-3e-2],"mode":"rra","window":2,"paa":1,"alphabet":3,"k":1}`},
	{0, `{"series":[0.1, 1E+2 ,-0, 0 , 123456789012345678901234567890],"tenant":"a\"b","threshold":3}`},
	{0, `{"SERIES":[1,2],"Series":[3]}`},
	{0, `{"ſeries":[1.5,2],"ſerieſ":[7]}`},
	{0, `{"series":[4,5],"series":[6]}`},
	{0, `{"series":[1],"series":null}`},
	{0, `{"series":[1,2],"series":[]}`},
	{0, `{"series":[1,2,3],"series":[null,4]}`},
	{0, `{"series":[1],"series":"x"}`},
	{0, `{"x":{"series":[9],"y":[1,{"z":"]\"["}]},"series":[-0,0,1E+2],"w":[[1],{}]}`},
	{0, `{"series":[1e400]}`},
	{0, `{"series":[1e-400,4.9e-324,1.7976931348623157e308]}`},
	{0, `{"series":[01]}`},
	{0, `{"series":[1.]}`},
	{0, `{"series":[+1]}`},
	{0, `{"series":[NaN]}`},
	{0, `{"series":[0x10]}`},
	{0, `{"series":[0x1p4,1_0,.5,Inf]}`},
	{0, `{"series":[1,]}`},
	{0, `{"series":[,1]}`},
	{0, `{"series":[1 2]}`},
	{0, `{"series":[nul]}`},
	{0, `{"series":[1,"a"]}`},
	{0, `{"series":[[1]]}`},
	{0, `{"series":[1,2`},
	{0, `{"series":[1,2]`},
	{0, `{"series":[1,2]}garbage`},
	{0, `{"series":[1]} {"series":[2]}`},
	{0, ` {"series":[ 1 ,	2 ]} `},
	{0, `null`},
	{0, `[]`},
	{0, ``},
	{0, `{"mode":"density","mode":"rra","interpolate":true}`},
	{1, `{"requests":[{"series":[1,2]},{"series":[3],"mode":"rra"}],"tenant":"t"}`},
	{1, `{"requests":[{"series":[1,2],"mode":"rra"}],"requests":[{"k":2}]}`},
	{1, `{"requests":[{"series":[1]},{"series":[2]}],"requests":[{"k":1}],"requests":[{},{}]}`},
	{1, `{"requests":[{"series":[1]}],"requests":null,"requests":[{}]}`},
	{1, `{"requests":[{"series":[1]}],"requests":[],"requests":[{}]}`},
	{1, `{"Requests":[null,{"SERIES":[5]}],"requeſts":[{"k":1},{"series":[6,7]}]}`},
	{1, `{"requests":[{"series":[1]},7]}`},
	{1, `{"requests":[{"series":[1]}]`},
	{2, `{"points":[1,2,3],"offset":3}`},
	{2, `{"POINTS":[1],"points":null}`},
	{2, `{"points":[null],"offset":null}`},
	{2, `{"points":[1e400]}`},
}

// FuzzDecodeRequest is the differential check of decodeBody against
// whole-body encoding/json: on every body both succeed with equal
// structs, bit for bit except for the null-is-NaN rule, or both fail.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(uint8(s.shape), []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, shape uint8, body []byte) {
		if err := decodeBoth(body, int(shape%3), shape&4 == 0); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	})
}

// TestDecodeConcurrent decodes from several goroutines at once, so that
// -race sees pooled decoders and buffers move between them.
func TestDecodeConcurrent(t *testing.T) {
	bodies := make([][]byte, 6)
	for i := range bodies {
		bodies[i] = analyzeBody(t, 200+300*i)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 30 {
				body := bodies[(g+i)%len(bodies)]
				if err := decodeBoth(body, 0, i%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDecodeNullIsNaN(t *testing.T) {
	var req AnalyzeRequest
	if err := decodeBody(strings.NewReader(`{"series":[1,null,3]}`), -1, 1<<20, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Series) != 3 || req.Series[0] != 1 || !math.IsNaN(req.Series[1]) || req.Series[2] != 3 {
		t.Fatalf("series = %v, want [1 NaN 3]", req.Series)
	}
}

// TestDecodeErrorOutlivesBuffer pins that an error names its literal by
// copy: decoding another body into the same buffer must not change it.
func TestDecodeErrorOutlivesBuffer(t *testing.T) {
	d := new(requestDecoder)
	decode := func(body string) error {
		defer d.reset()
		if err := d.read(strings.NewReader(body), int64(len(body)), 1<<20); err != nil {
			t.Fatal(err)
		}
		return d.decode(new(AnalyzeRequest))
	}
	errs := []error{decode(`{"series":[1,1e400]}`), decode(`{"series":[1,01]}`)}
	msgs := []string{errs[0].Error(), errs[1].Error()}
	if !strings.Contains(msgs[0], `"1e400"`) || !strings.Contains(msgs[1], `"01"`) {
		t.Fatalf("errors %q do not name the literals", msgs)
	}
	if err := decode(`{"series":[9,999999],"mode":"density"}`); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err.Error() != msgs[i] {
			t.Errorf("error changed after buffer reuse: %q, was %q", err.Error(), msgs[i])
		}
	}
}

// analyzeBody is a serve-hot-shaped analyze body of n points.
func analyzeBody(tb testing.TB, n int) []byte {
	tb.Helper()
	body, err := json.Marshal(AnalyzeRequest{
		Series: testSeries(n, 60, n/2, 60, 1), Mode: ModeDensity, Tenant: "t01",
		Window: 60, PAA: 4, Alphabet: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestRequestDecodeAllocs gates the warm decode of a 4,000-point analyze
// body at 4 allocations: the series, the mode and tenant strings, and one
// to spare. encoding/json makes ~20 for the same body.
func TestRequestDecodeAllocs(t *testing.T) {
	body := analyzeBody(t, 4000)
	d := new(requestDecoder)
	var src bytes.Reader
	var req AnalyzeRequest
	decode := func() {
		src.Reset(body)
		req = AnalyzeRequest{}
		if err := d.read(&src, int64(len(body)), 1<<20); err != nil {
			t.Fatal(err)
		}
		if err := d.decode(&req); err != nil {
			t.Fatal(err)
		}
		d.reset()
	}
	decode() // warm the buffers and the json.Decoder
	if allocs := testing.AllocsPerRun(50, decode); allocs > 4 {
		t.Fatalf("warm decode of a 4,000-point body: %v allocs, want <= 4", allocs)
	}
	var want AnalyzeRequest
	if err := stdlibDecode(body, &want); err != nil {
		t.Fatal(err)
	}
	if err := sameAnalyze(req, want); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkComponent_RequestDecode(b *testing.B) {
	powersOfTen() // a one-time build on first use, not per-request work
	decoders := []struct {
		name   string
		decode func(body []byte, req *AnalyzeRequest) error
	}{
		{"stdlib", func(body []byte, req *AnalyzeRequest) error { return stdlibDecode(body, req) }},
		{"server", func(body []byte, req *AnalyzeRequest) error {
			return decodeBody(bytes.NewReader(body), int64(len(body)), 64<<20, req)
		}},
	}
	for _, dec := range decoders {
		b.Run(dec.name, func(b *testing.B) {
			for _, size := range []struct {
				name string
				n    int
			}{{"4k", 4000}, {"40k", 40000}} {
				body := analyzeBody(b, size.n)
				b.Run(size.name, func(b *testing.B) {
					b.SetBytes(int64(len(body)))
					b.ReportAllocs()
					for b.Loop() {
						var req AnalyzeRequest
						if err := dec.decode(body, &req); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// postRaw posts body to path and returns the status and response body.
// chunked hides the length, so the request is sent without Content-Length.
func postRaw(t *testing.T, url, token string, body []byte, chunked bool) (int, string) {
	t.Helper()
	var rd io.Reader = bytes.NewReader(body)
	if chunked {
		rd = io.MultiReader(rd)
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set(resumeTokenHeader, token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// withNulls marshals a request map whose series has null at the given
// indices.
func withNulls(t *testing.T, fields map[string]any, key string, series []float64, nulls ...int) []byte {
	t.Helper()
	vals := make([]any, len(series))
	for i, v := range series {
		vals[i] = v
	}
	for _, i := range nulls {
		vals[i] = nil
	}
	fields[key] = vals
	body, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestNullIsMissingValue drives the request contract for null elements
// over HTTP: rejected naming the index, filled under interpolate, and a
// stream chunk holding one rejected before it reaches the WAL.
func TestNullIsMissingValue(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{StateDir: dir})
	series := testSeries(600, 40, 300, 40, 2)
	params := func() map[string]any {
		return map[string]any{"mode": ModeDensity, "window": 40, "paa": 4, "alphabet": 4}
	}

	t.Run("rejected", func(t *testing.T) {
		status, body := postRaw(t, ts.URL+"/v1/analyze", "", withNulls(t, params(), "series", series, 250), false)
		if status != http.StatusBadRequest || !strings.Contains(body, grammarviz.ErrInvalidValue.Error()) ||
			!strings.Contains(body, "index 250") {
			t.Fatalf("status %d: %s; want 400 naming index 250", status, body)
		}
		item := params()
		batch, err := json.Marshal(map[string]any{"requests": []json.RawMessage{
			withNulls(t, item, "series", series, 7), withNulls(t, params(), "series", series),
		}})
		if err != nil {
			t.Fatal(err)
		}
		status, body = postRaw(t, ts.URL+"/v1/analyze/batch", "", batch, false)
		var resp BatchResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil || status != http.StatusOK {
			t.Fatalf("batch status %d: %s", status, body)
		}
		if r := resp.Results[0]; r.Status != http.StatusBadRequest || !strings.Contains(r.Error, "index 7") {
			t.Errorf("batch item with a null: %+v, want 400 naming index 7", r)
		}
		if r := resp.Results[1]; r.Status != http.StatusOK {
			t.Errorf("clean batch item: %+v", r)
		}
	})

	t.Run("interpolated", func(t *testing.T) {
		fields := params()
		fields["interpolate"] = true
		status, body := postRaw(t, ts.URL+"/v1/analyze", "", withNulls(t, fields, "series", series, 0, 250, 251, 599), false)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		holes := append([]float64(nil), series...)
		for _, i := range []int{0, 250, 251, 599} {
			holes[i] = math.NaN()
		}
		filled, err := grammarviz.Interpolate(holes)
		if err != nil {
			t.Fatal(err)
		}
		det, err := grammarviz.New(filled, grammarviz.Options{Window: 40, PAA: 4, Alphabet: 4})
		if err != nil {
			t.Fatal(err)
		}
		got := decodeAnalyze(t, []byte(body))
		if !reflect.DeepEqual(got.Anomalies, det.GlobalMinima()) {
			t.Fatalf("anomalies %+v, want %+v", got.Anomalies, det.GlobalMinima())
		}
	})

	t.Run("stream", func(t *testing.T) {
		sess := openSession(t, ts.URL, sessionOpts)
		pts := streamSeries(120, 6)
		url := ts.URL + "/v1/stream/" + sess.ID + "/append"
		if status, body := postRaw(t, url, sess.ResumeToken, withNulls(t, map[string]any{}, "points", pts[:60]), false); status != http.StatusOK {
			t.Fatalf("clean chunk: %d %s", status, body)
		}
		status, body := postRaw(t, url, sess.ResumeToken,
			withNulls(t, map[string]any{"offset": 60}, "points", pts[60:], 3), false)
		if status != http.StatusBadRequest || !strings.Contains(body, "point 3") {
			t.Fatalf("chunk with a null: %d %s; want 400 naming point 3", status, body)
		}
		// Nothing reached the WAL: a server recovered from the state
		// directory sees the 60 clean points only.
		s2, ts2 := newTestServer(t, Config{StateDir: dir})
		if _, _, err := s2.RecoverSessions(t.Context()); err != nil {
			t.Fatal(err)
		}
		if _, state := getSession(t, ts2.URL, sess); state.Len != 60 {
			t.Fatalf("recovered session has %d points, want 60", state.Len)
		}
	})
}

// TestBodyTooLarge: a body over MaxBodyBytes is refused with 413 on every
// series-carrying endpoint, whether or not it declares its length.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 4096})
	sess := openSession(t, ts.URL, sessionOpts)
	big := testSeries(1000, 40, 500, 40, 3)
	bodies := map[string][]byte{
		"/v1/analyze": analyzeBody(t, 1000),
	}
	batch, err := json.Marshal(BatchRequest{Requests: []AnalyzeRequest{{Series: big}}})
	if err != nil {
		t.Fatal(err)
	}
	bodies["/v1/analyze/batch"] = batch
	chunk, err := json.Marshal(StreamAppendRequest{Points: big})
	if err != nil {
		t.Fatal(err)
	}
	bodies["/v1/stream/"+sess.ID+"/append"] = chunk
	for path, body := range bodies {
		for _, chunked := range []bool{false, true} {
			status, resp := postRaw(t, ts.URL+path, sess.ResumeToken, body, chunked)
			if status != http.StatusRequestEntityTooLarge {
				t.Errorf("%s (chunked %v): status %d (%s), want 413", path, chunked, status, resp)
			}
		}
	}
}
