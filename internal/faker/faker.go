// Package faker forges syntactically valid data for every field type in the
// taxonomy, playing the role of the Faker library in Section 4.3 of the
// paper: the crawler maps each classified input field to a generator here and
// types the result into the form. Generated values are plausible enough to
// pass the client-side validation phishing kits perform (Luhn-valid card
// numbers, well-formed emails, digit-count-correct phones and SSNs) while
// being entirely fictitious.
package faker

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/fieldspec"
)

// Faker generates forged data. It is deterministic for a given seed, and safe
// to use from a single goroutine (use New per crawler session).
type Faker struct {
	seed int64
	rng  *rand.Rand // seeded at the first draw
}

// New returns a Faker seeded with seed. Seeding math/rand's source costs
// more than most draws, and a crawl session that types nothing draws
// nothing, so the source is built at the first draw.
func New(seed int64) *Faker {
	return &Faker{seed: seed}
}

// rand returns the Faker's source, seeding it on first use.
func (f *Faker) rand() *rand.Rand {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.seed))
	}
	return f.rng
}

var (
	firstNames = []string{
		"James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
		"Linda", "David", "Elizabeth", "William", "Barbara", "Richard",
		"Susan", "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen",
		"Daniel", "Nancy", "Matthew", "Lisa", "Anthony", "Betty",
	}
	lastNames = []string{
		"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
		"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
		"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson",
		"Martin", "Lee", "Perez", "Thompson", "White", "Harris", "Clark",
	}
	emailDomains = []string{
		"gmail.com", "yahoo.com", "outlook.com", "hotmail.com", "aol.com",
		"icloud.com", "mail.com", "protonmail.com",
	}
	streets = []string{
		"Main St", "Oak Ave", "Maple Dr", "Cedar Ln", "Park Blvd", "Elm St",
		"Washington Ave", "Lake Rd", "Hill St", "Sunset Blvd", "2nd Ave",
		"River Rd", "Church St", "Highland Ave",
	}
	cities = []string{
		"Springfield", "Riverton", "Fairview", "Georgetown", "Clinton",
		"Madison", "Salem", "Franklin", "Arlington", "Ashland", "Dover",
		"Hudson", "Kingston", "Milton", "Newport", "Oxford",
	}
	states = []string{
		"AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI",
		"ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI",
		"MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC",
		"ND", "OH", "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT",
		"VT", "VA", "WA", "WV", "WI", "WY",
	}
	questions = []string{
		"What was the name of your first pet?",
		"What is your mother's maiden name?",
		"What city were you born in?",
		"What was your first car?",
		"What is your favorite teacher's name?",
	}
	answers = []string{
		"Rex", "Buttons", "Smokey", "Bella", "Charlie", "Luna", "Max",
		"Whiskers", "Shadow", "Ginger",
	}
	passwordWords = []string{
		"Sunshine", "Dragon", "Monkey", "Football", "Princess", "Shadow",
		"Master", "Flower", "Winter", "Summer",
	}
	searchTerms = []string{
		"order status", "account help", "reset instructions", "pricing",
		"contact support", "shipping times",
	}
	// cardPrefixes gives IIN prefixes with realistic lengths: Visa 4,
	// Mastercard 51-55, Amex-excluded (different length handling kept simple).
	cardPrefixes = []string{"4", "51", "52", "53", "54", "55"}
)

func (f *Faker) pick(list []string) string {
	return list[f.rand().Intn(len(list))]
}

func (f *Faker) digits(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('0' + f.rand().Intn(10)))
	}
	return b.String()
}

// FirstName returns a forged first name.
func (f *Faker) FirstName() string { return f.pick(firstNames) }

// LastName returns a forged last name.
func (f *Faker) LastName() string { return f.pick(lastNames) }

// FullName returns a forged "First Last" name.
func (f *Faker) FullName() string { return f.FirstName() + " " + f.LastName() }

// Email returns a well-formed forged email address.
func (f *Faker) Email() string {
	return fmt.Sprintf("%s.%s%d@%s",
		strings.ToLower(f.FirstName()),
		strings.ToLower(f.LastName()),
		f.rand().Intn(90)+10,
		f.pick(emailDomains))
}

// UserID returns a plausible login handle.
func (f *Faker) UserID() string {
	return strings.ToLower(f.FirstName()) + f.digits(3)
}

// Password returns a password that satisfies common complexity rules (length
// >= 10, mixed case, digit, symbol).
func (f *Faker) Password() string {
	return f.pick(passwordWords) + f.digits(2) + "!" + f.pick(passwordWords)[:2]
}

// Phone returns a NANP-shaped phone number.
func (f *Faker) Phone() string {
	// Area codes don't start with 0 or 1.
	area := fmt.Sprintf("%d%s", f.rand().Intn(8)+2, f.digits(2))
	exch := fmt.Sprintf("%d%s", f.rand().Intn(8)+2, f.digits(2))
	return fmt.Sprintf("%s-%s-%s", area, exch, f.digits(4))
}

// Address returns a street address.
func (f *Faker) Address() string {
	return fmt.Sprintf("%d %s", f.rand().Intn(9899)+100, f.pick(streets))
}

// City returns a city name.
func (f *Faker) City() string { return f.pick(cities) }

// State returns a US state abbreviation.
func (f *Faker) State() string { return f.pick(states) }

// Question returns a security question.
func (f *Faker) Question() string { return f.pick(questions) }

// Answer returns a security answer.
func (f *Faker) Answer() string { return f.pick(answers) }

// DateOfBirth returns an MM/DD/YYYY date for a plausible adult.
func (f *Faker) DateOfBirth() string {
	return fmt.Sprintf("%02d/%02d/%d", f.rand().Intn(12)+1, f.rand().Intn(28)+1, 1950+f.rand().Intn(50))
}

// Code returns a 6-digit verification code.
func (f *Faker) Code() string { return f.digits(6) }

// License returns a driver's-license-shaped identifier.
func (f *Faker) License() string {
	return string(rune('A'+f.rand().Intn(26))) + f.digits(7)
}

// SSN returns an SSN-shaped number avoiding invalid areas 000, 666, 9xx.
func (f *Faker) SSN() string {
	area := f.rand().Intn(665-1) + 1 // 001..664
	return fmt.Sprintf("%03d-%02d-%04d", area, f.rand().Intn(99)+1, f.rand().Intn(9999)+1)
}

// CardNumber returns a Luhn-valid 16-digit payment card number.
func (f *Faker) CardNumber() string {
	prefix := f.pick(cardPrefixes)
	body := prefix + f.digits(15-len(prefix))
	return body + luhnCheckDigit(body)
}

// ExpDate returns an MM/YY card expiration in the future relative to a fixed
// reference year, keeping the generator deterministic.
func (f *Faker) ExpDate() string {
	return fmt.Sprintf("%02d/%02d", f.rand().Intn(12)+1, 27+f.rand().Intn(5))
}

// CVV returns a 3-digit card verification value.
func (f *Faker) CVV() string { return f.digits(3) }

// SearchTerm returns an innocuous search query.
func (f *Faker) SearchTerm() string { return f.pick(searchTerms) }

// ForType returns forged data appropriate for the given field type. For
// Unknown it returns the crawler's predetermined default string.
func (f *Faker) ForType(t fieldspec.Type) string {
	switch t {
	case fieldspec.Email:
		return f.Email()
	case fieldspec.UserID:
		return f.UserID()
	case fieldspec.Password:
		return f.Password()
	case fieldspec.Name:
		return f.FullName()
	case fieldspec.Address:
		return f.Address()
	case fieldspec.Phone:
		return f.Phone()
	case fieldspec.City:
		return f.City()
	case fieldspec.State:
		return f.State()
	case fieldspec.Question:
		return f.Question()
	case fieldspec.Answer:
		return f.Answer()
	case fieldspec.Date:
		return f.DateOfBirth()
	case fieldspec.Code:
		return f.Code()
	case fieldspec.License:
		return f.License()
	case fieldspec.SSN:
		return f.SSN()
	case fieldspec.Card:
		return f.CardNumber()
	case fieldspec.ExpDate:
		return f.ExpDate()
	case fieldspec.CVV:
		return f.CVV()
	case fieldspec.Search:
		return f.SearchTerm()
	default:
		return fieldspec.DefaultValue
	}
}

// luhnCheckDigit returns the digit that makes body+digit Luhn-valid.
func luhnCheckDigit(body string) string {
	sum := 0
	// Positions counted from the right of the final number; the check digit
	// will be position 1, so body digits start at position 2.
	double := true
	for i := len(body) - 1; i >= 0; i-- {
		d := int(body[i] - '0')
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return fmt.Sprintf("%d", (10-sum%10)%10)
}

// LuhnValid reports whether s (digits only) passes the Luhn checksum. It is
// exported so phishing-site form validators and tests can share it.
func LuhnValid(s string) bool {
	if len(s) == 0 {
		return false
	}
	sum := 0
	double := false
	for i := len(s) - 1; i >= 0; i-- {
		c := s[i]
		if c < '0' || c > '9' {
			return false
		}
		d := int(c - '0')
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return sum%10 == 0
}
