// WebAssembly binary-format decoder: bytes -> waran::wasm::Module.
//
// The decoder enforces structural well-formedness (section order, counts,
// LEB128 canonicality bounds, body sizes) and lowers function bodies into
// flat instruction vectors with structured-control targets resolved. Type
// correctness is the validator's job (validator.h); decode + validate
// together implement the spec's "module validation".
#pragma once

#include <cstdint>
#include <span>

#include "common/result.h"
#include "wasm/module.h"

namespace waran::wasm {

/// Decodes `bytes` under fixed resource bounds (decoder.cpp), applied while
/// decoding so a hostile module cannot balloon memory before validation
/// even starts.
Result<Module> decode_module(std::span<const uint8_t> bytes);

}  // namespace waran::wasm
