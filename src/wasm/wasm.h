// Umbrella header for the WA-RAN WebAssembly engine.
//
// Typical embedder flow:
//   auto module = waran::wasm::decode_module(bytes);        // bytes -> IR
//   waran::wasm::validate_module(*module);                  // type check
//   waran::wasm::translate_module(*module);                 // micro-op lowering
//   auto inst = waran::wasm::Instance::instantiate(...);    // link + alloc
//   auto r = inst->call("run", args, {.fuel = budget});      // trap-safe
#pragma once

#include "wasm/decoder.h"     // IWYU pragma: export
#include "wasm/host.h"        // IWYU pragma: export
#include "wasm/instance.h"    // IWYU pragma: export
#include "wasm/memory.h"      // IWYU pragma: export
#include "wasm/module.h"      // IWYU pragma: export
#include "wasm/opcode.h"      // IWYU pragma: export
#include "wasm/translate.h"   // IWYU pragma: export
#include "wasm/types.h"       // IWYU pragma: export
#include "wasm/validator.h"   // IWYU pragma: export
