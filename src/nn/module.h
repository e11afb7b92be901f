#ifndef NERGLOB_NN_MODULE_H_
#define NERGLOB_NN_MODULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "autograd/variable.h"
#include "common/status.h"

namespace nerglob::io {
class TensorWriter;
class TensorReader;
}  // namespace nerglob::io

namespace nerglob::nn {

/// Base for trainable components: anything that owns parameters.
/// Parameters are leaf ag::Vars with requires_grad=true whose values the
/// optimizer updates in place.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters of this module (and submodules).
  virtual std::vector<ag::Var> Parameters() const = 0;

  /// Number of scalar parameters; handy for model summaries.
  size_t NumParameters() const {
    size_t n = 0;
    for (const ag::Var& p : Parameters()) n += p.value().size();
    return n;
  }
};

/// Appends a module's parameters to an open artifact as one checksummed
/// record (io::kTagModule): name, parameter count, shaped matrices. The
/// architecture itself is NOT stored: loading into a differently-shaped
/// module fails with InvalidArgument. Composable — ModelBundle writes one
/// record per sub-model into a single `.ngb` file.
Status SaveModule(io::TensorWriter* writer, std::string_view name,
                  const Module& module);

/// Reads a record written by SaveModule into `module`'s parameters. The
/// record's checksum, name and parameter count are verified first, and
/// each parameter's stored shape before its values are read into it. On
/// an error the target's parameters are unspecified: the caller discards
/// it (ModelBundle::Load builds its bundle locally and drops it on any
/// error).
Status LoadModule(io::TensorReader* reader, std::string_view name,
                  Module* module);

/// Persists a module's parameter values as a standalone single-record
/// file in the common artifact format (see io/tensor_io.h).
Status SaveModuleParameters(const Module& module, const std::string& path);

/// Restores parameter values saved with SaveModuleParameters. The module
/// must have the same architecture (parameter count and shapes); as with
/// LoadModule, a failed load leaves its parameters unspecified.
Status LoadModuleParameters(const std::string& path, Module* module);

/// Takes a value snapshot of parameters (for best-checkpoint tracking).
std::vector<Matrix> SnapshotParameters(const std::vector<ag::Var>& params);

/// Restores parameter values from a snapshot taken with SnapshotParameters.
void RestoreParameters(const std::vector<Matrix>& snapshot,
                       std::vector<ag::Var>* params);

}  // namespace nerglob::nn

#endif  // NERGLOB_NN_MODULE_H_
