// The FileId-sharded runtime server is RuntimeServer with
// EngineConfig::num_shards > 1 (see node.h); this name remains for callers
// that spell the sharded shape explicitly.
#ifndef SRC_RUNTIME_SHARDED_NODE_H_
#define SRC_RUNTIME_SHARDED_NODE_H_

#include "src/runtime/node.h"

namespace leases {

using ShardedRuntimeServer = RuntimeServer;

}  // namespace leases

#endif  // SRC_RUNTIME_SHARDED_NODE_H_
