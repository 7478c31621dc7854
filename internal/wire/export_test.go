package wire

// Scanned is the scanner alone: it reports whether it took data and, if so,
// decoded it into dst.
var Scanned = scanned
