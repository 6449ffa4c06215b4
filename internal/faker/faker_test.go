package faker

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fieldspec"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 50; i++ {
		if a.Email() != b.Email() || a.CardNumber() != b.CardNumber() {
			t.Fatal("same seed must produce same sequence")
		}
	}
	c := New(43)
	same := 0
	a2 := New(42)
	for i := 0; i < 20; i++ {
		if a2.Email() == c.Email() {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical sequences")
	}
}

func TestEmailWellFormed(t *testing.T) {
	re := regexp.MustCompile(`^[a-z]+\.[a-z]+\d{2}@[a-z.]+\.[a-z]+$`)
	f := New(1)
	for i := 0; i < 100; i++ {
		e := f.Email()
		if !re.MatchString(e) {
			t.Errorf("malformed email %q", e)
		}
	}
}

func TestPhoneShape(t *testing.T) {
	re := regexp.MustCompile(`^[2-9]\d{2}-[2-9]\d{2}-\d{4}$`)
	f := New(2)
	for i := 0; i < 100; i++ {
		p := f.Phone()
		if !re.MatchString(p) {
			t.Errorf("malformed phone %q", p)
		}
	}
}

func TestCardLuhnValid(t *testing.T) {
	f := New(3)
	for i := 0; i < 200; i++ {
		c := f.CardNumber()
		if len(c) != 16 {
			t.Fatalf("card length = %d, want 16: %q", len(c), c)
		}
		if !LuhnValid(c) {
			t.Errorf("card %q fails Luhn", c)
		}
		if c[0] != '4' && c[0] != '5' {
			t.Errorf("card %q has unexpected IIN", c)
		}
	}
}

func TestLuhnValidRejects(t *testing.T) {
	if LuhnValid("") {
		t.Error("empty string should fail")
	}
	if LuhnValid("411111111111111a") {
		t.Error("non-digit should fail")
	}
	if !LuhnValid("4111111111111111") {
		t.Error("canonical test Visa should pass")
	}
	if LuhnValid("4111111111111112") {
		t.Error("off-by-one checksum should fail")
	}
}

// Property: flipping any single digit of a Luhn-valid number breaks validity.
func TestLuhnSingleDigitErrorDetection(t *testing.T) {
	f := New(4)
	check := func(pos uint8, delta uint8) bool {
		c := []byte(f.CardNumber())
		i := int(pos) % len(c)
		d := int(delta)%9 + 1 // non-zero change
		c[i] = byte('0' + (int(c[i]-'0')+d)%10)
		return !LuhnValid(string(c))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSSNShape(t *testing.T) {
	re := regexp.MustCompile(`^\d{3}-\d{2}-\d{4}$`)
	f := New(5)
	for i := 0; i < 100; i++ {
		s := f.SSN()
		if !re.MatchString(s) {
			t.Errorf("malformed SSN %q", s)
		}
		area := s[:3]
		if area == "000" || area == "666" || area[0] == '9' {
			t.Errorf("SSN %q uses invalid area", s)
		}
	}
}

func TestDateOfBirthShape(t *testing.T) {
	re := regexp.MustCompile(`^(0[1-9]|1[0-2])/(0[1-9]|[12]\d)/(19[5-9]\d)$`)
	f := New(6)
	for i := 0; i < 100; i++ {
		d := f.DateOfBirth()
		if !re.MatchString(d) {
			t.Errorf("malformed DOB %q", d)
		}
	}
}

func TestCodeAndCVV(t *testing.T) {
	f := New(7)
	for i := 0; i < 50; i++ {
		if c := f.Code(); len(c) != 6 {
			t.Errorf("code %q not 6 digits", c)
		}
		if v := f.CVV(); len(v) != 3 {
			t.Errorf("cvv %q not 3 digits", v)
		}
		if e := f.ExpDate(); len(e) != 5 || e[2] != '/' {
			t.Errorf("expdate %q malformed", e)
		}
	}
}

func TestPasswordComplexity(t *testing.T) {
	f := New(8)
	for i := 0; i < 50; i++ {
		p := f.Password()
		if len(p) < 8 {
			t.Errorf("password %q too short", p)
		}
		if !strings.ContainsAny(p, "0123456789") {
			t.Errorf("password %q lacks digit", p)
		}
		if !strings.ContainsAny(p, "!@#$%") {
			t.Errorf("password %q lacks symbol", p)
		}
	}
}

func TestForTypeCoversEveryType(t *testing.T) {
	f := New(9)
	for _, ty := range fieldspec.All() {
		v := f.ForType(ty)
		if v == "" {
			t.Errorf("ForType(%s) returned empty", ty)
		}
		if v == fieldspec.DefaultValue && ty != fieldspec.Unknown {
			t.Errorf("ForType(%s) fell through to default", ty)
		}
	}
	if v := f.ForType(fieldspec.Unknown); v != fieldspec.DefaultValue {
		t.Errorf("ForType(Unknown) = %q, want default", v)
	}
}

func TestForTypeRetryProducesNewData(t *testing.T) {
	// Section 4.3: on rejection, the crawler generates a NEW set of forged
	// data. Successive calls must (overwhelmingly) differ.
	f := New(10)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		seen[f.ForType(fieldspec.Card)] = true
	}
	if len(seen) < 9 {
		t.Errorf("only %d distinct cards in 10 draws", len(seen))
	}
}

func BenchmarkForTypeCard(b *testing.B) {
	f := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.ForType(fieldspec.Card)
	}
}

// TestLazySeedMatchesEager checks, for every field type, that a Faker whose
// source is seeded at its first draw forges the values one seeded in New
// did, on a fresh Faker and after draws of every other type.
func TestLazySeedMatchesEager(t *testing.T) {
	eager := func(seed int64) *Faker {
		return &Faker{seed: seed, rng: rand.New(rand.NewSource(seed))}
	}
	for _, typ := range fieldspec.AllWithUnknown() {
		t.Run(string(typ), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				lazy, ref := New(seed), eager(seed)
				if lazy.rng != nil {
					t.Fatal("New seeded the source before any draw")
				}
				for i := 0; i < 10; i++ {
					if got, want := lazy.ForType(typ), ref.ForType(typ); got != want {
						t.Fatalf("seed %d, draw %d: lazy %q, eager %q", seed, i, got, want)
					}
				}
				for _, other := range fieldspec.AllWithUnknown() {
					if got, want := lazy.ForType(other)+lazy.ForType(typ), ref.ForType(other)+ref.ForType(typ); got != want {
						t.Fatalf("seed %d, after %s: lazy %q, eager %q", seed, other, got, want)
					}
				}
			}
		})
	}
}
