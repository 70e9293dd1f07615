#ifndef XARCH_XARCH_H_
#define XARCH_XARCH_H_

/// \file
/// \brief Umbrella header for the xarch library — a C++ implementation of
/// "Archiving Scientific Data" (Buneman, Khanna, Tajima, Tan; SIGMOD 2002 /
/// TODS 2004).
///
/// Quickstart:
/// \code
///   auto spec = xarch::keys::ParseKeySpecSet(R"(
///     (/, (db, {}))
///     (/db, (dept, {name}))
///     (/db/dept, (emp, {fn, ln}))
///   )");
///   xarch::core::Archive archive(std::move(*spec));
///   auto v1 = xarch::xml::Parse("<db>...</db>");
///   archive.AddVersion(**v1);                       // Nested Merge
///   auto old = archive.RetrieveVersion(1);          // any past version
///   auto when = archive.History({{"db", {}}, ...}); // element history
///   std::string xml = archive.ToXml();              // archive is XML too
/// \endcode

#include "client/client.h"
#include "compress/container.h"
#include "compress/lzss.h"
#include "core/archive.h"
#include "core/changes.h"
#include "core/scan.h"
#include "diff/edit_script.h"
#include "diff/repository.h"
#include "extmem/external_archiver.h"
#include "extmem/io_stats.h"
#include "index/archive_index.h"
#include "index/timestamp_tree.h"
#include "keys/annotate.h"
#include "keys/infer.h"
#include "keys/key_spec.h"
#include "keys/label.h"
#include "persist/container.h"
#include "persist/crc32c.h"
#include "persist/log.h"
#include "persist/wire.h"
#include "query/ast.h"
#include "query/evaluator.h"
#include "query/explain.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/planner.h"
#include "server/net_util.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/status.h"
#include "util/version_set.h"
#include "xarch/checkpoint.h"
#include "xarch/durable.h"
#include "xarch/sink.h"
#include "xarch/store.h"
#include "xarch/store_registry.h"
#include "xml/canonical.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/path.h"
#include "xml/serializer.h"
#include "xml/value.h"

#endif  // XARCH_XARCH_H_
