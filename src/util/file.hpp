#pragma once
// The one whole-file writer behind every report, trace, metrics and
// forensic artifact. A full disk often shows only when fclose flushes the
// buffered bytes, so its result counts as much as fwrite's.

#include <string>

namespace gfi::util {

/// Writes @p body to @p path, replacing the file. Throws std::runtime_error
/// ("<what>: cannot open <path>" or "<what>: write failed on <path>") when
/// fopen, fwrite or fclose fails.
void writeFile(const std::string& path, const std::string& body, const char* what);

} // namespace gfi::util
