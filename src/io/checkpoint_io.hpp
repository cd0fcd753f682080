// Durable (de)serialization of gen::RunCheckpoint (docs/robustness.md).
//
// Versioned text format, one logical field per line:
//
//   # orbis checkpoint v3
//   d 2                                  (the stage being run)
//   target_d 3                           (the pipeline's level)
//   pipeline_rng <w0> <w1> <w2> <w3>     (only while d < target_d)
//   budget 1000000
//   every 50000
//   backend dense
//   move swap
//   ladder <exchange_every> <adaptive>
//   [exchange_rng <w0..w3>, exchanges <attempted> <accepted>]  (laddered)
//   chains 2
//   chain 0
//   attempts 50000
//   rng <w0> <w1> <w2> <w3>
//   temperature_bits <IEEE-754 bits>
//   stats <attempts> <accepted> <rej_structural> <rej_constraint>
//         <rej_objective> <conflict_reevals>          (one line)
//   distance 42
//   graph <nodes> <edges>
//   <u> <v>                                           (edges lines)
//   end chain
//   ...
//   end checkpoint
//
// Writes go through io::AtomicFileWriter, so the checkpoint path always
// holds either the previous complete checkpoint or the new one — a kill
// mid-write can never produce a half-checkpoint for resume to trip on.
//
// v1 (no move/ladder/temperature records) and v2 (no target_d /
// pipeline_rng) files still read, as single-stage runs: target_d = d.
//
// Reads are strict: any structural deviation — wrong version, missing
// field, trailing garbage, out-of-range node, duplicate edge, all-zero
// Rng state, chains out of step, a stage above the pipeline's level,
// chains on different node counts — throws orbis::ParseError naming the
// file and line; open/read failures throw orbis::IoError.  A parse
// never returns a partially-filled checkpoint.
#pragma once

#include <string>

#include "gen/checkpoint.hpp"

namespace orbis::io {

/// Atomically writes `state` to `path`.  Throws orbis::IoError on any
/// I/O failure (temp create, write, fsync, rename), leaving `path`
/// untouched.
void write_checkpoint_file(const std::string& path,
                           const gen::RunCheckpoint& state);

/// Parses a checkpoint written by write_checkpoint_file.  Throws
/// orbis::IoError / orbis::ParseError as described above.
gen::RunCheckpoint read_checkpoint_file(const std::string& path);

}  // namespace orbis::io
