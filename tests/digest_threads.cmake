# Runs nptsn_digest over ADS (GCN and GAT, seed 1) at one and four NN
# threads and fails unless the two digests are identical.
#   cmake -DDIGEST=<path to nptsn_digest> -P digest_threads.cmake
foreach(threads 1 4)
  execute_process(
    COMMAND ${DIGEST} --runs ads,ads-gat --seeds 1 --nn-threads ${threads}
    OUTPUT_VARIABLE digest_${threads}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "nptsn_digest --nn-threads ${threads} exited with ${status}")
  endif()
endforeach()
if(NOT digest_1 STREQUAL digest_4)
  message(FATAL_ERROR "digests differ across nn_threads\n"
                      "--- nn_threads 1\n${digest_1}--- nn_threads 4\n${digest_4}")
endif()
message(STATUS "digests identical at nn_threads 1 and 4")
