package sessionio

// DecodeFast lets the external tests, which crawl through core (an
// importer of this package), tell a fast-path decode from a fallback.
var DecodeFast = decodeFast
