# Checks that `stindex_cli pack` refuses an --out that names the journal
# it packs: given DB/live_wal.stpages itself, or a symbolic link to it,
# pack exits 2 with a message naming both paths, and the journal keeps
# its bytes, so a later ingest still recovers it.
#
#   cmake -DCLI=path/to/stindex_cli -DWORK_DIR=dir \
#         -P cli_pack_journal_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(dataset "${WORK_DIR}/objects.csv")
execute_process(COMMAND "${CLI}" generate --family random --n 20 --seed 3
                        --out "${dataset}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "generate failed (${status}): ${err}")
endif()
execute_process(COMMAND "${CLI}" ingest --in "${dataset}" --db "${WORK_DIR}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ingest failed (${status}): ${err}")
endif()

set(journal "${WORK_DIR}/live_wal.stpages")
set(link "${WORK_DIR}/journal_link.stpages")
file(CREATE_LINK "${journal}" "${link}" SYMBOLIC)
file(SHA256 "${journal}" before)
foreach(out "${journal}" "${link}")
  execute_process(COMMAND "${CLI}" pack --db "${WORK_DIR}" --out "${out}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "pack --out ${out} exited ${status}, not 2\n"
                        "stdout: ${stdout}\nstderr: ${err}")
  endif()
  foreach(path "${out}" "${journal}")
    string(FIND "${err}" "${path}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "pack --out ${out}: stderr does not name ${path}\n"
                          "stderr: ${err}")
    endif()
  endforeach()
  file(SHA256 "${journal}" after)
  if(NOT before STREQUAL after)
    message(FATAL_ERROR "pack --out ${out} changed ${journal}")
  endif()
endforeach()

execute_process(COMMAND "${CLI}" ingest --in "${dataset}" --db "${WORK_DIR}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0 OR NOT out MATCHES "recovered [0-9]+ journal records")
  message(FATAL_ERROR "ingest did not recover the journal (${status}):\n"
                      "${out}${err}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
