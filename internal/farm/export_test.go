package farm

import (
	"testing"

	"repro/internal/crawler"
	"repro/internal/phishserver"
)

// The external tests in stages_test.go fold session logs with
// report.StageTable (report imports farm), so they reach the package's
// fixtures through these.

func StreamFixture(t *testing.T, base, n int) (*phishserver.Registry, []string) {
	return streamFixture(t, base, n)
}

func NewTestCrawler(reg *phishserver.Registry) *crawler.Crawler { return testCrawler(reg, nil) }
