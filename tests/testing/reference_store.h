// The eager reference store: every segment file the directory's manifest
// lists, read whole and decoded up front with DecodeSegment, its sequences
// Append()ed in manifest order into a memory-only TripStore. No mapping, no
// footer-staged indexes, no lazy materialization — the oracle the lazily
// opened store must answer identically to (tests/store_test.cc checks that
// across compaction and worker counts). Header-only; used only by tests.
#pragma once

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "store/manifest.h"
#include "store/segment_codec.h"
#include "store/trip_store.h"

namespace trips::store::testing {

/// Opens `directory` eagerly into a memory-only store. Fails when the
/// manifest is missing or torn, or any listed file fails to decode.
inline Result<std::unique_ptr<TripStore>> OpenReferenceStore(
    const std::string& directory) {
  TRIPS_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(directory));
  TRIPS_ASSIGN_OR_RETURN(std::unique_ptr<TripStore> stored, TripStore::Open());
  for (const ManifestSegment& entry : manifest.segments) {
    std::ifstream in(std::filesystem::path(directory) / entry.file,
                     std::ios::binary);
    if (!in) return Status::IOError("cannot read " + entry.file);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    TRIPS_ASSIGN_OR_RETURN(std::vector<core::MobilitySemanticsSequence> decoded,
                           DecodeSegment(blob));
    for (core::MobilitySemanticsSequence& seq : decoded) {
      TRIPS_RETURN_NOT_OK(stored->Append(std::move(seq)).status());
    }
  }
  return stored;
}

}  // namespace trips::store::testing
