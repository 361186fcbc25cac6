// Package perf defines the structured experiment-report schema the
// harness emits and its JSON serialization. The checked-in baseline is
// one such document, pinned byte for byte.
//
// Every experiment run produces a [Document]: a versioned envelope holding
// one [Report] per experiment, each report holding [Table]s of keyed rows
// whose cells are named, direction-annotated metrics (sim cycles, speedup,
// steal-tier counts, remote-access fractions, wall-clock ns). The
// human-readable table and CSV outputs are renderers over the same value
// ([WriteText], [WriteCSV]); JSON ([Encode]) is the machine-readable form
// CI diffs.
//
// # Schema versioning policy
//
// The JSON schema carries an integer version, [SchemaVersion], in the
// document envelope's "schema_version" field. The policy is:
//
//   - Additive changes (new optional fields, new metrics, new tables) do
//     NOT bump the version. Decoders must tolerate unknown fields.
//   - Breaking changes (renaming or re-typing existing fields, changing
//     the meaning of an existing metric name, changing row identity) bump
//     SchemaVersion by one and must be noted in this comment.
//   - [Decode] rejects documents with a version newer than this package
//     understands ("written by a newer tool"), documents with a
//     missing/zero version, and anything but whitespace after the
//     document. Older versions, once any exist, are migrated in Decode so
//     the rest of the package only ever sees the current shape.
//
// Version history:
//
//	1 — initial schema (document/report/table/row/metric as above).
//
// # Determinism
//
// Encode is byte-deterministic for a given Document: maps serialize with
// sorted keys (encoding/json), floats round-trip exactly, and nothing in
// the envelope is time- or revision-dependent. Two runs of the deterministic simulator therefore produce byte-identical
// files, which is what lets CI diff them.
package perf
