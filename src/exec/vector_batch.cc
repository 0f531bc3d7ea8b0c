#include "exec/vector_batch.h"

namespace jsontiles::exec {

void IntersectSelection(const ColumnVector& pred, SelectionVector* sel) {
  JSONTILES_DCHECK(pred.type() == ValueType::kBool ||
                   pred.type() == ValueType::kNull);
  const uint8_t* nulls = pred.nulls();
  size_t out = 0;
  if (pred.type() == ValueType::kNull) {
    sel->count = 0;  // statically-null predicate keeps nothing
    return;
  }
  const int64_t* vals = pred.i64();
  for (size_t k = 0; k < sel->count; k++) {
    uint16_t row = sel->idx[k];
    if (nulls[row] == 0 && vals[row] != 0) sel->idx[out++] = row;
  }
  sel->count = out;
}

}  // namespace jsontiles::exec
