package server

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// jsonNumber is the oracle for scanFloat's grammar: a JSON number followed
// by one of the bytes that may end an array element.
var jsonNumber = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[\t\n\r ,\]]`)

// parseLiteral is parseFloats' per-element path on s plus the ']'
// sentinel: the fused scan, and strconv.ParseFloat on the literal when the
// scan declines to round it.
func parseLiteral(s string) (f float64, end int, ok, exact bool, err error) {
	b := append([]byte(s), ']')
	if f, end, ok, exact = scanFloat(b, 0, powersOfTen()); ok && !exact {
		f, err = strconv.ParseFloat(s[:end], 64)
	}
	return f, end, ok, exact, err
}

// checkNumber parses the JSON number s and compares the value and the
// verdict, bit for bit, with strconv.ParseFloat's. exact reports whether
// the fused scan converted s without strconv.
func checkNumber(s string) (exact bool, err error) {
	got, end, ok, exact, err := parseLiteral(s)
	if !ok || end != len(s) {
		return exact, fmt.Errorf("%q: scan ok=%v end=%d, want the whole literal", s, ok, end)
	}
	want, wantErr := strconv.ParseFloat(s, 64)
	switch {
	case (err == nil) != (wantErr == nil):
		return exact, fmt.Errorf("%q: err %v (exact %v), strconv err %v", s, err, exact, wantErr)
	case math.Float64bits(got) != math.Float64bits(want):
		return exact, fmt.Errorf("%q: got %v (%#x, exact %v), strconv %v (%#x)",
			s, got, math.Float64bits(got), exact, want, math.Float64bits(want))
	}
	return exact, nil
}

// checkLiteral checks the scan of s plus the ']' sentinel against the
// oracles: its grammar verdict and extent against jsonNumber, and the
// value of the number it accepts against strconv.ParseFloat.
func checkLiteral(s string) error {
	_, end, ok, _, _ := parseLiteral(s)
	loc := jsonNumber.FindStringIndex(s + "]")
	if ok != (loc != nil) || ok && end != loc[1]-1 {
		return fmt.Errorf("%q: scan ok=%v end=%d, grammar match %v", s, ok, end, loc)
	}
	if !ok {
		return nil
	}
	_, err := checkNumber(s[:end])
	return err
}

// parseFloatSeeds pin the grammar edges and the conversion's hard cases.
var parseFloatSeeds = []string{
	// Clinger's step moved 3 zeros into the integer part and, in a first
	// version, passed the shifted exponent (22) on to Eisel–Lemire: e+37.
	"-4.241992688398962e+40",
	"9007199254740993", "9007199254740992.5", "18014398509481986", "1e23", "8.98846567431158e307",
	"1e400", "-1e400", "1e-400", "1e99999999999999999999", "0e99999999999999999999", "-0", "-0.0e-5",
	"4.9e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
	"1.7976931348623158e308", "0.1", "123456789012345678901234567890", "1234567890123456789.5e-10",
	"0.000000000000000000000000000012345678901234567890000000", "100000000000000000000000",
	"", "-", "1.", "01", "+1", "1e", "1e+", ".5", "0x10", "NaN", "1 2", "1,", "1e5x", "-.5",
}

// FuzzParseFloat is the differential check of the fused scan against the
// JSON grammar and strconv.ParseFloat: both verdicts and every bit agree.
func FuzzParseFloat(f *testing.F) {
	for _, s := range parseFloatSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if err := checkLiteral(s); err != nil {
			t.Fatal(err)
		}
	})
}

func TestParseFloatSeeds(t *testing.T) {
	// Thousands of digits before the exponent, which saturates as
	// strconv's does: the first is 0.1, but strconv.ParseFloat reads 0.
	// They stay out of the fuzz corpus, where their size would slow every
	// mutation.
	long := []string{"1" + strings.Repeat("0", 100000) + "e-100001", "0." + strings.Repeat("0", 20000) + "1e20001"}
	for _, s := range append(parseFloatSeeds, long...) {
		if err := checkLiteral(s); err != nil {
			t.Error(err)
		}
	}
}

// TestParseFloatSweep checks a few million seeded literals: random float64
// bit patterns in strconv's shortest 'g', 'e' and 'f' forms and at fixed
// precisions of up to 25 digits, random decimal mantissas of up to 25
// digits at every table exponent, and the integer halfway points between
// adjacent float64s above 2^53.
func TestParseFloatSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 18
	if testing.Short() {
		n = 1 << 12
	}
	var checked, fast int
	check := func(s string) {
		t.Helper()
		exact, err := checkNumber(s)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		if exact {
			fast++
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022} {
		for _, verb := range []byte{'g', 'e', 'f'} {
			check(strconv.FormatFloat(f, verb, -1, 64))
			check(strconv.FormatFloat(-f, verb, -1, 64))
		}
	}
	for _, s := range []string{"1e400", "-1e400", "1e-400", "-1e-400"} {
		check(s)
	}
	var digits strings.Builder
	for range n {
		// Any finite float64, subnormals included, and a short one.
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, verb := range []byte{'g', 'e', 'f'} {
			check(strconv.FormatFloat(f, verb, -1, 64))
		}
		check(strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
		if g := float64(float32(f)); !math.IsInf(g, 0) {
			check(strconv.FormatFloat(g, 'g', -1, 64))
		}

		// A decimal mantissa of 1 to 25 digits at any exponent the table
		// covers, with the point placed anywhere in it.
		digits.Reset()
		if rng.Intn(2) == 0 {
			digits.WriteByte('-')
		}
		nd := 1 + rng.Intn(25)
		digits.WriteByte(byte('1' + rng.Intn(9)))
		point := rng.Intn(nd + 1)
		for i := 1; i < nd; i++ {
			if i == point {
				digits.WriteByte('.')
			}
			digits.WriteByte(byte('0' + rng.Intn(10)))
		}
		fmt.Fprintf(&digits, "e%d", minPow10+rng.Intn(maxPow10-minPow10+1))
		check(digits.String())

		// The midpoint between two adjacent float64s in [2^53, 1e19):
		// an integer of at most 19 digits that Eisel–Lemire must decline,
		// and its neighbours, which it must round the right way.
		m := uint64(1)<<52 | rng.Uint64()>>12
		if mid := (2*m + 1) << rng.Intn(11); mid < 1e19 {
			for _, v := range []uint64{mid - 1, mid, mid + 1} {
				s := strconv.FormatUint(v, 10)
				check(s)
				check(s[:1] + "." + s[1:] + "e" + strconv.Itoa(len(s)-1))
			}
		}
	}
	if fast < checked*3/4 {
		t.Fatalf("only %d of %d literals converted without strconv", fast, checked)
	}
	t.Logf("%d literals, %d converted without strconv", checked, fast)
}

// TestPowersOfTenRows parses 1e<e> and 9.999999999999999e<e> for every
// exponent in the table. Inside the normal float64 range each must convert
// without strconv: a wrong row makes Eisel–Lemire round wrong or decline.
func TestPowersOfTenRows(t *testing.T) {
	for e := minPow10; e <= maxPow10; e++ {
		for _, s := range []string{fmt.Sprintf("1e%d", e), fmt.Sprintf("9.999999999999999e%d", e)} {
			if err := checkLiteral(s); err != nil {
				t.Fatal(err)
			}
			if _, _, _, exact, _ := parseLiteral(s); !exact && -307 <= e && e <= 307 {
				t.Errorf("%s: fell back to strconv", s)
			}
		}
	}
}

// scanNumberStrconv is the per-element conversion the decoder made before
// the fused scan, kept as the benchmark baseline: a grammar-only scan of
// the literal, then strconv.ParseFloat, which scans its digits again.
func scanNumberStrconv(b []byte, i int) (f float64, end int, err error) {
	start := i
	skipDigits := func(i int) int {
		for isDigit(b[i]) {
			i++
		}
		return i
	}
	if b[i] == '-' {
		i++
	}
	switch {
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(i + 1)
	default:
		return 0, i, strconv.ErrSyntax
	}
	if b[i] == '.' {
		if !isDigit(b[i+1]) {
			return 0, i + 1, strconv.ErrSyntax
		}
		i = skipDigits(i + 1)
	}
	if b[i] == 'e' || b[i] == 'E' {
		i++
		if b[i] == '+' || b[i] == '-' {
			i++
		}
		if !isDigit(b[i]) {
			return 0, i, strconv.ErrSyntax
		}
		i = skipDigits(i)
	}
	switch b[i] {
	case ' ', '\t', '\r', '\n', ',', ']':
		f, err = strconv.ParseFloat(unsafe.String(&b[start], i-start), 64)
		return f, i, err
	}
	return 0, i, strconv.ErrSyntax
}

// BenchmarkComponent_ParseFloat converts the 4,000 number literals of a
// serve-hot-shaped series, one series per op, as parseFloats walks them:
// strconv is the grammar scan plus strconv.ParseFloat the decoder used
// before, fused is scanFloat.
func BenchmarkComponent_ParseFloat(b *testing.B) {
	body := string(analyzeBody(b, 4000))
	i := strings.Index(body, `"series":[`) + len(`"series":[`)
	arr := []byte(body[i : i+strings.IndexByte(body[i:], ']')+1])
	pow := powersOfTen()
	scanners := []struct {
		name string
		scan func(b []byte, i int) (float64, int, error)
	}{
		{"strconv", scanNumberStrconv},
		{"fused", func(b []byte, i int) (float64, int, error) {
			f, end, ok, exact := scanFloat(b, i, pow)
			if !ok || !exact {
				return 0, end, strconv.ErrSyntax
			}
			return f, end, nil
		}},
	}
	for _, sc := range scanners {
		b.Run(sc.name, func(b *testing.B) {
			b.SetBytes(int64(len(arr)))
			b.ReportAllocs()
			for b.Loop() {
				var sum float64
				for p := 0; p < len(arr)-1; p++ {
					f, end, err := sc.scan(arr, p)
					if err != nil {
						b.Fatalf("%q: %v", arr[p:end+1], err)
					}
					sum, p = sum+f, end
				}
				if sum == 0 {
					b.Fatal("no values")
				}
			}
		})
	}
}
