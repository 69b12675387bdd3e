#include "ccbt/engine/primitives.hpp"

namespace ccbt {

// Compile every supported batch width of the table-producing primitives
// once; TUs that only call through these signatures reuse them.
#define CCBT_INSTANTIATE_PRIMITIVES(B)                                       \
  template ProjTableT<B> init_path_from_graph<B>(const ExecContext&,         \
                                                 const ExtendOpts&);         \
  template ProjTableT<B> init_path_from_child<B>(                            \
      const ExecContext&, const ProjTableT<B>&, bool, const ExtendOpts&);    \
  template ProjTableT<B> extend_with_graph<B>(                               \
      const ExecContext&, ProjTableT<B>&, const ExtendOpts&);                \
  template ProjTableT<B> extend_with_graph<B>(                               \
      const ExecContext&, const ProjTableT<B>&, const ExtendOpts&);          \
  template ProjTableT<B> extend_with_child<B>(                              \
      const ExecContext&, ProjTableT<B>&, const ProjTableT<B>&,              \
      const ExtendOpts&, bool);                                              \
  template ProjTableT<B> node_join<B>(const ExecContext&, ProjTableT<B>&,    \
                                      const ProjTableT<B>&, int);            \
  template void merge_halves<B>(const ExecContext&, ProjTableT<B>&,          \
                                ProjTableT<B>&, const MergeSpec&,            \
                                AccumMapT<B>&);                              \
  template ProjTableT<B> aggregate<B>(const ExecContext&,                    \
                                      const ProjTableT<B>&, int);

CCBT_INSTANTIATE_PRIMITIVES(1)
CCBT_INSTANTIATE_PRIMITIVES(2)
CCBT_INSTANTIATE_PRIMITIVES(4)
CCBT_INSTANTIATE_PRIMITIVES(8)

#undef CCBT_INSTANTIATE_PRIMITIVES

}  // namespace ccbt
